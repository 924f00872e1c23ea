package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeyContentHashing(t *testing.T) {
	if Key(StageParse, "a", "b") != Key(StageParse, "a", "b") {
		t.Error("Key not deterministic")
	}
	if Key(StageParse, "a", "b") == Key(StageSyntaxValidate, "a", "b") {
		t.Error("stage not folded into the key")
	}
	// Length framing: concatenation across part boundaries must not collide.
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Error("parts not length-framed")
	}
	if HashStrings() == HashStrings("") {
		t.Error("zero parts collides with one empty part")
	}
}

// TestHashStringsMatchesFramedDigest pins HashStrings to the plain
// definition — one length frame and one digest write per part — across
// parts that straddle, fill and exceed its write buffer, so cache keys
// stay what they were.
func TestHashStringsMatchesFramedDigest(t *testing.T) {
	ref := func(parts ...string) string {
		h := sha256.New()
		var frame [8]byte
		for _, p := range parts {
			binary.BigEndian.PutUint64(frame[:], uint64(len(p)))
			h.Write(frame[:])
			h.Write([]byte(p))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	var many []string
	for i := 0; i < 5000; i++ {
		many = append(many, strings.Repeat("x", i%97), "line")
	}
	cases := [][]string{
		nil,
		{""},
		{"a", "bc"},
		many,
		{strings.Repeat("p", hashBufSize-8), "tail"},
		{"head", strings.Repeat("p", hashBufSize-8)},
		{"head", strings.Repeat("q", hashBufSize-7), "tail"},
		{strings.Repeat("r", 3*hashBufSize+5), "", strings.Repeat("s", hashBufSize)},
	}
	for i, parts := range cases {
		if got, want := HashStrings(parts...), ref(parts...); got != want {
			t.Errorf("case %d (%d parts): HashStrings = %s, framed digest %s", i, len(parts), got, want)
		}
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, ok := s.Get("k"); ok {
		t.Error("empty store claims a hit")
	}
	s.Put("k", 42)
	v, ok := s.Get("k")
	if !ok || v.(int) != 42 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := HashStrings("artifact")
	const ver = "parse.v1.art"
	if _, ok := d.GetBytes(StageParse, key, ver); ok {
		t.Error("empty disk store claims a hit")
	}
	if err := d.PutBytes(StageParse, key, []byte(`{"x":1}`), ver); err != nil {
		t.Fatal(err)
	}
	got, ok := d.GetBytes(StageParse, key, ver)
	if !ok || string(got) != `{"x":1}` {
		t.Errorf("GetBytes = %q, %v", got, ok)
	}
	// A second store over the same directory sees the artifact (the
	// warm-start-across-processes contract).
	d2, err := NewDiskStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.GetBytes(StageParse, key, ver); !ok {
		t.Error("artifact not visible to a fresh store over the same dir")
	}
	if _, ok := d2.GetBytes(StageDeriveHierarchy, key, ver); ok {
		t.Error("artifact leaked across stages")
	}
	// The codec version is part of the filename: a format bump must never
	// read an old layout's bytes.
	if _, ok := d2.GetBytes(StageParse, key, "parse.v2.art"); ok {
		t.Error("artifact visible under a different codec version")
	}
}
