package main

import (
	"encoding/binary"
	"hash/fnv"
)

// Every workload has one primary op class with 60 % of the ops and two
// minority classes with 25 % and 15 %, interleaved by this fixed 20-slot
// pattern. Whatever the cost order of the three classes, the cumulative
// class boundaries can only fall at 15, 25, 40, 60, 75 or 85 %, so the
// median always lies inside the primary class and p95 inside whichever
// class is the most expensive — never on a boundary between two cost
// modes, where a percentile would flip between runs.
var classPattern = [20]uint8{0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0, 2}

const (
	classPrimary = iota // 60 %
	classMinor25        // 25 %
	classMinor15        // 15 %
	numClasses
)

var classShares = [numClasses]float64{0.60, 0.25, 0.15}

// classSlots names the three slots in per-layer metric names; each
// workload maps them to its own class names (README, result.json).
var classSlots = [numClasses]string{"primary", "minor25", "minor15"}

// op is one request of the closed loop. Op i always uses seed i, so the
// first ops of every run are the same requests whatever the machine speed.
type op struct {
	i     int    // position in the stream
	class int    // classPrimary, classMinor25 or classMinor15
	seed  uint64 // estimation seed handed to the program
	pick  uint64 // per-op random draw (which hot key, which reuse variant)
}

// seedBase keeps stream seeds away from the small seeds set-up and
// warm-up use, so no warm-up request aliases a stream request.
const seedBase = 1 << 20

// opAt is the whole schedule: a pure function of the workload seed and the
// stream position.
func opAt(workloadSeed uint64, i int) op {
	return op{
		i:     i,
		class: int(classPattern[i%len(classPattern)]),
		seed:  seedBase + uint64(i),
		pick:  mix(workloadSeed, uint64(i)),
	}
}

// mix is a splitmix64 finalizer over two words.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// scheduleHash fingerprints the first n ops of a workload's schedule; it
// is printed with every run so two runs can be seen to have issued the
// same request stream.
func scheduleHash(workload string, workloadSeed uint64, n int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	var buf [8]byte
	for i := 0; i < n; i++ {
		o := opAt(workloadSeed, i)
		binary.LittleEndian.PutUint64(buf[:], uint64(o.class))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], o.seed)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], o.pick)
		h.Write(buf[:])
	}
	return h.Sum64()
}
