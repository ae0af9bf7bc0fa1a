package core

import "repro/internal/token"

// VerifyBudget exposes verify to the external tests, so they can sweep an
// integer SLD budget directly instead of going through a threshold.
func (v *Verifier) VerifyBudget(x, y *token.TokenizedString, max int) (sld int, within, pruned bool) {
	return v.verify(x, y, max)
}
