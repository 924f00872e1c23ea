package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64 // 0 means refused
	}{
		{n: 100, q: 0.90, want: 90}, // 10 beyond
		{n: 99, q: 0.90, want: 0},   // rank 89, 9 beyond
		{n: 1000, q: 0.99, want: 990},
		{n: 999, q: 0.99, want: 0},
		{n: 19, q: 0.50, want: 0}, // the median of a small batch is not a tail
		{n: 21, q: 0.50, want: 11},
		{n: 0, q: 0.50, want: 0},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("n=%d q=%v: got %v, want refusal", c.n, c.q, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("n=%d q=%v: got %v, %v; want %v", c.n, c.q, got, err, c.want)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("q=1 accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
