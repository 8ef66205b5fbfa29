package model

import "tender/internal/tensor"

// OracleForward is Forward through the full-sequence oracle block of
// oracle_test.go, the reference the identity tests hold pass to.
func (m *Model) OracleForward(tokens []int, eng Engine) *tensor.Matrix {
	return tensor.MatMul(m.oracleHidden(tokens, eng), m.Unembed)
}

// OracleClassifyLogits is ClassifyLogits through the oracle block.
func (m *Model) OracleClassifyLogits(tokens []int, eng Engine) []float64 {
	return tensor.MatMul(m.oracleHidden(tokens, eng).RowView(0, 1), m.Cls).Data
}
