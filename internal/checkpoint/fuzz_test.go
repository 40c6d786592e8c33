package checkpoint

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzMetaDecodeParity: the report path reads device bytes through
// ParseMeta and then DecodeParams (retention rounds), AccumulateParams
// (plaintext stripes) or AccumulateParamsScaled (norm-bound clipping).
// On any input ParseMeta must not panic, and whenever it accepts, all
// three decoders must agree with Unmarshal, coordinate for coordinate.
//
//	go test -run '^$' -fuzz FuzzMetaDecodeParity -fuzztime 30s ./internal/checkpoint
func FuzzMetaDecodeParity(f *testing.F) {
	c := sample()
	for _, enc := range []Encoding{EncodingFloat64, EncodingQuant8} {
		good, err := c.Marshal(enc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		// The hostile inputs of TestUnmarshalErrors and
		// TestUnmarshalHostileParamCount.
		f.Add(good[:8])
		f.Add(good[:len(good)-3])
		f.Add(append([]byte{0, 0, 0, 0}, good[4:]...))
		for _, at := range []int{4, 5} {
			b := append([]byte(nil), good...)
			b[at] = 99
			f.Add(b)
		}
		hostile := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(hostile[4+1+1+2+len(c.TaskName)+8+8:], math.MaxUint32)
		f.Add(hostile)
	}
	empty, _ := (&Checkpoint{TaskName: "empty"}).Marshal(EncodingQuant8)
	f.Add(empty)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseMeta(b)
		full, uerr := Unmarshal(b)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("ParseMeta error %v, Unmarshal error %v", err, uerr)
		}
		if err != nil {
			return
		}
		if m.NumParams != len(full.Params) || m.Round != full.Round || m.TaskName(b) != full.TaskName ||
			math.Float64bits(m.Weight) != math.Float64bits(full.Weight) {
			t.Fatalf("meta %+v disagrees with Unmarshal %+v", m, full)
		}
		decoded := make(tensor.Vector, m.NumParams)
		summed := make(tensor.Vector, m.NumParams)
		scaled := make(tensor.Vector, m.NumParams)
		if err := m.DecodeParams(b, decoded); err != nil {
			t.Fatal(err)
		}
		if err := m.AccumulateParams(b, summed); err != nil {
			t.Fatal(err)
		}
		if err := m.AccumulateParamsScaled(b, scaled, 1); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]tensor.Vector{"DecodeParams": decoded, "AccumulateParams": summed, "AccumulateParamsScaled": scaled} {
			for i, want := range full.Params {
				// 0 + (−0) is +0, and NaN payloads need not survive an
				// add: compare as values, with NaN equal to NaN.
				if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
					t.Fatalf("%s param %d = %v, Unmarshal = %v", name, i, got[i], want)
				}
			}
		}
	})
}
