//go:build !amd64

package tensor

// Without assembly the portable tier is the only one.
func quantTiers() []quantTier { return []quantTier{{gemmTierT: qgemmTier}} }

func currentQuantTier() quantTier { return quantTier{gemmTierT: qgemmTier} }

func useQuantTier(q quantTier) { qgemmTier = q.gemmTierT }
