package nlp

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"nassim/internal/devmodel"
)

// encodeRef is Encode without any memo: every token vector and the
// anisotropy axis are drawn afresh, summed in token order, and normalized.
func encodeRef(e *denseEncoder, text string) Vec {
	out := make(Vec, e.dim)
	var common Vec
	if e.anisotropy > 0 {
		common = tokenVector("\x00anisotropy-axis", e.dim)
	}
	for _, tok := range Tokenize(text) {
		tok = e.canonicalize(tok)
		w := 1.0
		if e.weighted && IsStopword(tok) {
			w = 0.1
		}
		tv := tokenVector(tok, e.dim)
		for i := range out {
			out[i] += w * tv[i]
			if common != nil {
				out[i] += w * e.anisotropy * common[i]
			}
		}
	}
	norm := 0.0
	for _, x := range out {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range out {
			out[i] /= norm
		}
	}
	return out
}

func dense(t *testing.T, enc Encoder) *denseEncoder {
	t.Helper()
	switch e := enc.(type) {
	case *denseEncoder:
		return e
	case *NetBERT:
		return &e.denseEncoder
	}
	t.Fatalf("%T is not a dense encoder", enc)
	return nil
}

// memoTexts share most of their tokens, so later encodings take their
// token vectors from the memo rather than drawing them.
var memoTexts = []string{
	"the ipv4 address of the neighbor",
	"the ipv4 address of the bgp peer",
	"the as number of the neighbor",
	"display the current vlan",
	"show the current vlan identifier",
	"the queue length of the port",
	"the queue length of the interface",
	"the neighbor of the port",
}

func bitEqual(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEncodeMatchesUnmemoized: with the token memo warm, every encoder's
// output is bit-identical to the memo-free sum.
func TestEncodeMatchesUnmemoized(t *testing.T) {
	syn := devmodel.GeneralSynonyms()
	for _, enc := range []Encoder{NewSimCSE(64, syn), NewSBERT(64, syn), NewNetBERT(64, syn)} {
		e := dense(t, enc)
		for round := 0; round < 2; round++ {
			for _, s := range memoTexts {
				if got, want := enc.Encode(s), encodeRef(e, s); !bitEqual(got, want) {
					t.Fatalf("%s round %d: Encode(%q) differs from the unmemoized sum", enc.Name(), round, s)
				}
			}
		}
		if n := memoLen(e.tokens); n == 0 {
			t.Errorf("%s: token memo empty after encoding", enc.Name())
		}
	}
}

func memoLen(c *vecCache) int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].m)
	}
	return n
}

// TestFineTunedNetBERTMatchesFresh: an encoder whose token memo was warmed
// before fine-tuning encodes exactly like one fine-tuned on the same data
// without ever encoding before, and like the memo-free sum.
func TestFineTunedNetBERTMatchesFresh(t *testing.T) {
	syn := devmodel.GeneralSynonyms()
	warm := NewNetBERT(64, syn)
	for _, s := range memoTexts {
		warm.Encode(s)
	}
	sw := warm.FineTune(fineTuneExamples(), 10, 1, 42)
	fresh := NewNetBERT(64, syn)
	sf := fresh.FineTune(fineTuneExamples(), 10, 1, 42)
	if sw.Alignments != sf.Alignments || sw.Alignments == 0 {
		t.Fatalf("alignments: warm %d, fresh %d", sw.Alignments, sf.Alignments)
	}
	for _, s := range memoTexts {
		w, f := warm.Encode(s), fresh.Encode(s)
		if !bitEqual(w, f) {
			t.Errorf("Encode(%q): fine-tuned warm encoder differs from fresh one", s)
		}
		if !bitEqual(w, encodeRef(&warm.denseEncoder, s)) {
			t.Errorf("Encode(%q): fine-tuned encoder differs from the unmemoized sum", s)
		}
	}
}

// TestEncodeConcurrentTokenMemo encodes distinct texts that share tokens
// from many goroutines through one encoder, so the token memo is filled
// concurrently (run under -race), and checks every result against the
// memo-free sum.
func TestEncodeConcurrentTokenMemo(t *testing.T) {
	syn := devmodel.GeneralSynonyms()
	for _, enc := range []Encoder{NewSimCSE(32, syn), NewSBERT(32, syn), NewNetBERT(32, syn)} {
		e := dense(t, enc)
		texts := make([]string, 64)
		for i := range texts {
			texts[i] = fmt.Sprintf("%s %d", memoTexts[i%len(memoTexts)], i)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range texts {
					s := texts[(g*7+i)%len(texts)]
					if !bitEqual(enc.Encode(s), encodeRef(e, s)) {
						t.Errorf("%s: concurrent Encode(%q) differs from the unmemoized sum", enc.Name(), s)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
