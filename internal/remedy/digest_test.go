package remedy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestRemedyOutputDigests pins the exact bytes of the remedied dataset
// for the row-removing, row-duplicating and relabeling techniques, in
// both the iterative Algorithm 2 and the one-shot ablation. Any change
// to how region row sets are looked up, how counts are maintained, or
// how the RNG is consumed shows up here as a digest mismatch.
func TestRemedyOutputDigests(t *testing.T) {
	d := synth.Compas(1)
	cases := []struct {
		tech    Technique
		oneShot bool
		want    string
	}{
		{Undersampling, false, "517cb4185457f72288a9d1d8a4df5170cf6f2152a15e94355ba35ef5fbc71c37"},
		{PreferentialSampling, false, "6ccfbf84fe66f3bd93e2cc84b2fa6518f486f349682531fb0d65e322dbcb207f"},
		{Massaging, false, "b456d80c179ed2c961c74f2f4157aa3b5d4ddb8be5276fb508958c78b5e1f84c"},
		{Undersampling, true, "b6cbc9df53a73200263f6e82eab53942e241ae532b2070a9fffea0366867b549"},
		{PreferentialSampling, true, "24f4505831e00cfc4bbe429ffae81ab0e3407954001349070ca92e21b7fc204a"},
		{Massaging, true, "82cc7c03d73301bff1c8a6bcd2e2948756171acd0ff5219ebcd35ceb70a6dcca"},
	}
	for _, tc := range cases {
		name := string(tc.tech)
		if tc.oneShot {
			name += "/oneshot"
		}
		t.Run(name, func(t *testing.T) {
			out, rep, err := Apply(d, Options{
				Identify:  core.Config{TauC: 0.1, T: 1},
				Technique: tc.tech,
				Seed:      3,
				OneShot:   tc.oneShot,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Added+rep.Removed+rep.Flipped == 0 {
				t.Fatal("remedy changed nothing; the digest would not pin anything")
			}
			var buf bytes.Buffer
			if err := out.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("remedied CSV sha256 = %s, want %s (added %d, removed %d, flipped %d)",
					got, tc.want, rep.Added, rep.Removed, rep.Flipped)
			}
		})
	}
}
