//go:build !amd64

package tensor

// Without assembly the portable tier is the only one, and switching to it
// does nothing.
func quantTiers() []quantTier { return []quantTier{{name: "portable"}} }

func currentQuantTier() quantTier { return quantTier{name: "portable"} }

func useQuantTier(quantTier) {}
