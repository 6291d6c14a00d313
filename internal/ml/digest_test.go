package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// TestFitOutputDigests pins the exact bits every learner produces at
// seed 1 on a fixed synthetic Adult draw: the sha256 of the
// MarshalModel state (JSON floats round-trip exactly) followed by the
// little-endian bits of PredictProba on every held-out row. The
// weighted cases give every fifth row weight 0 and the rest weights in
// {0.5, 1, 1.5, 2}, which also sends the forest through its weighted
// bootstrap sampler. The values were recorded with the map-histogram
// tree kernel and the dense linear-model loops that the pre-binned
// tree kernel and the nonzero-column loops replaced; any change to how
// a learner orders its floating-point operations or consumes its RNG
// shows up here as a digest mismatch.
func TestFitOutputDigests(t *testing.T) {
	d := synth.AdultN(4000, 1)
	train, test := d.StratifiedSplit(0.7, 1)
	enc := dataset.NewEncoding(train.Schema)
	x, y, unit := enc.Encode(train)
	heldOut, _, _ := enc.Encode(test)
	weighted := make([]float64, len(x))
	for i := range weighted {
		if i%5 != 0 {
			weighted[i] = 0.5 * float64(1+i%4)
		}
	}
	cases := []struct {
		kind     ModelKind
		weighted bool
		want     string
	}{
		{DT, false, "2a59ad51e9310e4a0abe07e7683fc84ccb90654e6ec34a73435ec504d43e26ee"},
		{RF, false, "b851365da028d29f99fd2421b2e98a3272569490ccd3e83be361ac66fe929088"},
		{LG, false, "1070877d16c0f02750e54a0c7c9a37abe70eaee927cc2d29b6d453ba98ac0134"},
		{NN, false, "130cd3441b04281c1b3725413543fe30212b79c8d6a8bc98ee92622e2eed0e13"},
		{DT, true, "f136bcbf40732675184dcf530f13744455d341ea98cd23e17e1d4bc421e74d52"},
		{RF, true, "671956893fdfeb1ca82d722b89e5db0770779ae494636ee72b078067d16ad21a"},
		{LG, true, "16b2caeacbd5ec9d015d28dc2852747d72b722e78d864980cee0e081e5bea379"},
		{NN, true, "8a614e46c68f6f4586e80d910c5887b06f72ce60c5771ab6570a6d35579b4659"},
	}
	for _, tc := range cases {
		name := string(tc.kind)
		w := unit
		if tc.weighted {
			name += "/weighted"
			w = weighted
		}
		t.Run(name, func(t *testing.T) {
			clf, err := NewClassifier(tc.kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := clf.Fit(x, y, w); err != nil {
				t.Fatal(err)
			}
			_, _, state := clf.(Persistable).MarshalModel()
			js, err := json.Marshal(state)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(js)
			var buf [8]byte
			for _, row := range heldOut {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(clf.PredictProba(row)))
				h.Write(buf[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("fit digest = %s, want %s", got, tc.want)
			}
		})
	}
}
