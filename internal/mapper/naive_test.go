package mapper

import "nassim/internal/nlp"

// dlScoreNaive is the scalar reference for Equation 2: the weighted sum of
// the KV x KU pairwise row cosines, norms recomputed per pair. It is the
// executable specification the vectorized path is differentially tested
// against.
func (m *Mapper) dlScoreNaive(paramEmb []nlp.Vec, attr int) float64 {
	score := 0.0
	for i, pe := range paramEmb {
		for j, ae := range m.udmEmb[attr] {
			score += m.weights[i*KU+j] * nlp.Cosine(pe, ae)
		}
	}
	return score
}

// RecommendNaive is Recommend on the pre-vectorization scoring path:
// per-pair cosines for every candidate, no precombined rows and no int8
// prefilter. Golden tests hold Recommend to it.
func (m *Mapper) RecommendNaive(ctx ParamContext, k int) []Recommendation {
	if k <= 0 {
		k = 10
	}
	if m.enc == nil {
		return m.Recommend(ctx, k) // pure IR has no Equation 2 to vectorize
	}
	candidates, paramEmb := m.prepare(ctx)
	scored := make([]nlp.Scored, len(candidates))
	for ci, a := range candidates {
		scored[ci] = nlp.Scored{Doc: a, Score: m.dlScoreNaive(paramEmb, a)}
	}
	return m.recommendations(nlp.TopKScored(scored, k))
}
