package main

import (
	"math/rand"
	"time"

	"repro/internal/serve"
)

// rung is one arrival rate of the serve ladder, held for share of the
// run's seconds. A closed rung ignores due times: the generator sends
// its arrivals as fast as each tenant's queue admits them.
type rung struct {
	name   string
	rate   float64 // arrivals per second; for a closed rung, the rate arrivals are drawn at
	share  float64 // of the run's seconds
	closed bool
}

// ladder is the rate ladder. The first rung warms the server up and is
// not measured; the next three, an open loop, give the latency metrics.
// The last rung measures the server's capacity (max_rate_ok): a closed
// loop that keeps every tenant's queue full, whose completions per
// second are the rate the server sustains. Its arrivals are drawn at a
// rate well above any capacity seen, so they do not run out.
var ladder = []rung{
	{"warm", 20, 0.04, false},
	{"low", 20, 0.34, false},
	{"mid", 50, 0.14, false},
	{"high", 100, 0.10, false},
	{"cap", 1000, 0.38, true},
}

// Indexes of the measured rungs in ladder.
const (
	rungWarm = iota
	rungLow
	rungMid
	rungHigh
	rungCap
)

// The traffic mix, by count, is dealt from a shuffled deck so that
// every 25 arrivals hold exactly these kinds (a mix drawn independently
// per arrival would move the median latency from seed to seed by
// shifting the share of fast jobs). A share of the cacheable kinds
// repeats an earlier request verbatim. Every fourth arrival belongs to
// team-b, so the tenants send 3:1.
var deck = map[string]int{"identify": 13, "train": 4, "audit": 3, "remedy": 3, "upload": 2}

const (
	shareRepeat  = 0.25
	shareTenantA = 0.75
	// repeatBack bounds how many cacheable requests back a repeat
	// reaches: far enough that the original has usually finished, near
	// enough that it is still in the server's 128-entry response cache.
	repeatBackMin, repeatBackMax = 20, 60
	uploadRows                   = 300
)

// identifyVariants are the identification settings identify jobs draw
// from; each has a reference result computed during set-up.
var identifyVariants = []serve.JobRequest{
	{TauC: 0.05, T: 1}, {TauC: 0.1, T: 1}, {TauC: 0.15, T: 1}, {TauC: 0.2, T: 1},
	{TauC: 0.05, T: 2}, {TauC: 0.1, T: 2}, {TauC: 0.15, T: 2}, {TauC: 0.2, T: 2},
}

var remedyTechniques = []string{"PS", "US", "MS"}

// arrival is one scheduled operation of the ladder.
type arrival struct {
	rung   int
	at     time.Duration // due time, from the start of the ladder
	tenant int           // 0 or 1
	kind   string        // identify | train | audit | remedy | upload
	// req is the job request without its dataset ID, which the server
	// assigns at upload.
	req serve.JobRequest
	// variant indexes identifyVariants for identify jobs.
	variant int
	// dataset indexes the COMPAS datasets uploaded at set-up.
	dataset int
	// orig is the index of the arrival this one repeats verbatim, or -1.
	orig int
	// uploadSeed generates an upload's dataset.
	uploadSeed int64
}

// schedule draws the arrivals of the whole ladder from seed, scaling
// rung durations to seconds: exponential inter-arrival times at each
// rung's rate, kinds by the deck above. The same seed gives the same
// schedule.
func schedule(seed int64, seconds float64) []arrival {
	r := rand.New(rand.NewSource(seed))
	var out []arrival
	var cacheable []int // indexes of non-repeat cacheable arrivals
	var kinds []string
	// Identify variants, remedy techniques and audit statistics rotate
	// rather than being drawn, for the same reason as the deck.
	var nIdentify, nRemedy, nAudit, nJobs int
	var start time.Duration
	for ri, rg := range ladder {
		end := start + time.Duration(rg.share*seconds*float64(time.Second))
		t := start
		for {
			t += time.Duration(r.ExpFloat64() / rg.rate * float64(time.Second))
			if t >= end {
				break
			}
			if len(kinds) == 0 {
				kinds = dealDeck(r)
			}
			idx := len(out)
			a := arrival{rung: ri, at: t, orig: -1, kind: kinds[0]}
			kinds = kinds[1:]
			if idx%4 == 3 {
				a.tenant = 1
			}
			jobSeed := seed*1_000_003 + int64(idx) + 1
			switch a.kind {
			case "identify":
				a.variant = nIdentify % len(identifyVariants)
				nIdentify++
				v := identifyVariants[a.variant]
				a.req = serve.JobRequest{Kind: "identify", TauC: v.TauC, T: v.T, MinSize: 30, Scope: "lattice", Seed: jobSeed}
			case "train":
				a.req = serve.JobRequest{Kind: "train", Model: "DT", Seed: jobSeed}
			case "audit":
				stat := []string{"FPR", "FNR"}[nAudit%2]
				nAudit++
				a.req = serve.JobRequest{Kind: "audit", Model: "DT", Stat: stat, Seed: jobSeed}
			case "remedy":
				a.req = serve.JobRequest{Kind: "remedy", TauC: 0.1, Technique: remedyTechniques[nRemedy%len(remedyTechniques)], Seed: jobSeed}
				nRemedy++
			case "upload":
				a.uploadSeed = jobSeed
			}
			if a.kind != "upload" {
				a.dataset = nJobs % draws
				nJobs++
			}
			cacheKind := a.kind == "identify" || a.kind == "train" || a.kind == "audit"
			if cacheKind && len(cacheable) >= repeatBackMax && r.Float64() < shareRepeat {
				oi := cacheable[len(cacheable)-repeatBackMin-r.Intn(repeatBackMax-repeatBackMin+1)]
				o := out[oi]
				a.kind, a.req, a.variant, a.dataset, a.orig = o.kind, o.req, o.variant, o.dataset, oi
			} else if cacheKind {
				cacheable = append(cacheable, idx)
			}
			out = append(out, a)
		}
		start = end
	}
	return out
}

// dealDeck returns one deck of kinds in shuffled order.
func dealDeck(r *rand.Rand) []string {
	var d []string
	for _, k := range []string{"identify", "train", "audit", "remedy", "upload"} {
		for i := 0; i < deck[k]; i++ {
			d = append(d, k)
		}
	}
	r.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}
