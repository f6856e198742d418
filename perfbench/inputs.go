package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/loadgen"
	"snaptask/internal/server"
)

// serveSpec is the campaign that builds the model the serve workload
// reads: fixed, so every serve run reads the same finished library map and
// its seed varies only the navigation traffic.
var serveSpec = campaignSpec{World: 42, Agent: 42}

// mix64 is the splitmix64 finaliser; derive uses it to give every input
// its own stream of the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// derive returns the seed of input stream (kind, i) of a workload seed.
func derive(seed int64, kind string, i int) int64 {
	h := mix64(uint64(seed))
	for _, c := range kind {
		h = mix64(h ^ uint64(c))
	}
	return int64(mix64(h^uint64(i)) >> 1)
}

// opKind is one navigation-traffic operation.
type opKind int

const (
	opLocate opKind = iota
	opMap
	opClaim
	opStatus
)

var opNames = [...]string{"locate", "map", "claim", "status"}

func (k opKind) String() string { return opNames[k] }

// navMix is the navigation traffic: mostly locates, plus map fetches,
// claim polls that find no task, and status reads.
var navMix = [...]float64{opLocate: 0.75, opMap: 0.12, opClaim: 0.07, opStatus: 0.06}

// arrival is one scheduled operation of an open-loop phase.
type arrival struct {
	at  time.Duration // intended send time from the phase start
	op  opKind
	idx int // locate photo index (locates only)
}

// schedule draws an open-loop Poisson schedule at rate ops/s over dur from
// the given seed: arrival times, operation kinds and locate photos.
func schedule(seed int64, rate float64, dur time.Duration, pool int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	gaps := loadgen.Poisson{PerSec: rate}
	var out []arrival
	for t := gaps.Next(rng); t < dur; t += gaps.Next(rng) {
		a := arrival{at: t, op: pickOp(rng.Float64())}
		if a.op == opLocate {
			a.idx = rng.Intn(pool)
		}
		out = append(out, a)
	}
	return out
}

func pickOp(u float64) opKind {
	for k, w := range navMix {
		if u < w {
			return opKind(k)
		}
		u -= w
	}
	return opStatus
}

// locateInput is one pre-encoded POST /v1/locate body and the true
// position of the photo in it.
type locateInput struct {
	body  []byte
	truth geom.Vec2
}

// locatePool captures n photos in wd from the seed and keeps those that
// share at least minShared features with the model's feature index, so
// every locate in a run is one the model can answer. near, when non-nil,
// restricts capture positions to within radius metres of it.
func locatePool(wd *world, feats map[uint64]bool, seed int64, n int, near *geom.Vec2, radius float64) ([]locateInput, error) {
	const minShared = 24
	rng := rand.New(rand.NewSource(seed))
	b := wd.v.Bounds()
	var out []locateInput
	for tries := 0; len(out) < n; tries++ {
		if tries > 200*n {
			return nil, fmt.Errorf("locate pool: only %d of %d photos localise", len(out), n)
		}
		var p geom.Vec2
		if near != nil {
			a, r := rng.Float64()*2*math.Pi, radius*math.Sqrt(rng.Float64())
			p = near.Add(geom.UnitFromAngle(a).Scale(r))
		} else {
			p = geom.V2(b.Min.X+rng.Float64()*(b.Max.X-b.Min.X), b.Min.Y+rng.Float64()*(b.Max.Y-b.Min.Y))
		}
		yaw := rng.Float64() * 2 * math.Pi
		if !wd.v.Inside(p) || wd.v.Blocked(p) {
			continue
		}
		photo, err := wd.w.Capture(camera.Pose{Pos: p, Yaw: yaw}, wd.intr, camera.CaptureOptions{}, rng)
		if err != nil {
			return nil, err
		}
		shared := 0
		for _, o := range photo.Obs {
			if feats[o.FeatureID] {
				shared++
			}
		}
		if shared < minShared {
			continue
		}
		body, err := json.Marshal(server.LocateRequest{Photo: server.PhotoToDTO(photo)})
		if err != nil {
			return nil, err
		}
		out = append(out, locateInput{body: body, truth: p})
	}
	return out, nil
}
