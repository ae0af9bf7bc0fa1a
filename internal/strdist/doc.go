// Package strdist implements the character-level string distances the paper
// builds on: the Levenshtein Distance (LD, Definition 1) and the Normalized
// Levenshtein Distance (NLD, Definition 2, after Li & Liu 2007), together
// with the length/threshold bounds of Lemmas 8 and 9 that drive MassJoin's
// candidate generation and the streaming segment index, and the
// character-signature lower bound on LD (Sig, SigLowerBound) that the
// verifier and MassJoin's verify reducer test before running a DP.
//
// All distances operate on Unicode code points (runes), not bytes, so names
// in any script are compared the way the paper's tokenizer intends. Hot paths
// accept pre-converted []rune values to avoid repeated decoding.
package strdist
