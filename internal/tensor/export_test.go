package tensor

// Test hooks for the package's external tests, which run whole networks.

// AlphaFrame and AlphaKinds are alphaFrame and alphaKinds.
var (
	AlphaFrame = alphaFrame
	AlphaKinds = alphaKinds
)

// SetAlphaFold switches the alpha fold on or off.
func SetAlphaFold(on bool) { foldAlpha = on }
