package main

import (
	"fmt"
	"math/rand"
)

// The benchmark's inputs. Every workload runs against the synthetic DBLP
// dataset mvdbd generates with "-authors N -seed 1"; the request stream is
// drawn from the benchmark's own --seed and knows only the generator's id
// layout: author i is an advisor when i%8 == 0 and a student otherwise.

const (
	advisorEvery = 8
	// writeReads is the number of scans that follow each update batch in
	// write_mixed: few enough that a run sends a few dozen batches.
	writeReads = 16
	// freshAdvisor is the first advisor id the update batches insert:
	// far outside any generated author domain, so inserts never collide.
	freshAdvisor = 1_000_000
)

// scanWidths are the advisor-id window widths of read_scan and of
// write_mixed's reads: 19 to 21 advisors, about 165 answers. Three widths
// give the never-repeating stream 23520 texts, room for several times the
// requests a run sends.
var scanWidths = []int{152, 160, 168}

// spanWidths are read_span's window widths: 5 to 7 advisors, one Boolean
// answer.
var spanWidths = []int{40, 48, 56}

var workloadNames = []string{"read_scan", "read_span", "write_mixed"}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// Query texts: the paper's advisor-of-student lookup (the rule of
// dblp.QueryAdvisorOfStudent), which the answer checks read, and the two
// range shapes.
func qAdvisorOf(student int) string {
	return fmt.Sprintf("Q(a) :- Student(%d,year), Advisor(%d,a)", student, student)
}

func qScan(lo, width int) string {
	return fmt.Sprintf("Q(s) :- Student(s,y), Advisor(s,a), a >= %d, a < %d", lo, lo+width)
}

func qSpan(lo, width int) string {
	return fmt.Sprintf("Q() :- Student(s,y), Advisor(s,a), a >= %d, a < %d", lo, lo+width)
}

// stream generates one workload's request stream from the seed.
type stream struct {
	rng      *rand.Rand
	students []int

	// read_scan / read_span: a seeded permutation of (start, width)
	// windows, so no query text repeats within a run.
	windows [][2]int
	next    int

	// Update batches, which every workload sends, draw from their own
	// generator so they never shift a read stream.
	wrng  *rand.Rand
	round int
	order []int // seeded permutation of students the batches touch
}

func newStream(workload string, seed int64, authors int) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), wrng: rand.New(rand.NewSource(^seed))}
	for a := 1; a <= authors; a++ {
		if a%advisorEvery != 0 {
			s.students = append(s.students, a)
		}
	}
	s.order = s.wrng.Perm(len(s.students))
	var ws [][2]int
	switch workload {
	case "read_scan", "write_mixed":
		for _, w := range scanWidths {
			for lo := 1; lo+w <= authors; lo++ {
				ws = append(ws, [2]int{lo, w})
			}
		}
	case "read_span":
		// Windows aligned to the advisor grid: every window covers a
		// distinct advisor set, so every Boolean lineage is new and the
		// lineage cache cannot answer it.
		for _, w := range spanWidths {
			for lo := 1; lo+w <= authors; lo += advisorEvery {
				ws = append(ws, [2]int{lo, w})
			}
		}
	}
	for _, i := range s.rng.Perm(len(ws)) {
		s.windows = append(s.windows, ws[i])
	}
	return s
}

// nextRead returns the next query of a read workload. ok is false when a
// never-repeating stream is exhausted.
func (s *stream) nextRead(workload string) (q string, ok bool) {
	if s.next >= len(s.windows) {
		return "", false
	}
	w := s.windows[s.next]
	s.next++
	switch workload {
	case "read_scan":
		return qScan(w[0], w[1]), true
	case "read_span":
		return qSpan(w[0], w[1]), true
	}
	return "", false
}

// student returns the i-th student the update batches touch.
func (s *stream) student(i int) int { return s.students[s.order[i%len(s.order)]] }

// mutation is the wire form of one /update mutation.
type mutation struct {
	Op     string  `json:"op"`
	Rel    string  `json:"rel"`
	Vals   []int64 `json:"vals"`
	Weight float64 `json:"weight,omitempty"`
}

// writeRound is one update batch plus the reads that follow it.
type writeRound struct {
	Batch []mutation
	// Touched are the students whose Advisor tuples the batch changes.
	Touched []int
	Reads   []string
}

// firstBatch is the one-off batch sent right after a restart: the first
// structural batch on an index compiles in full to record its blocks.
func (s *stream) firstBatch() writeRound {
	st := s.student(0)
	return writeRound{
		Batch:   []mutation{{Op: "insert", Rel: "Advisor", Vals: []int64{int64(st), freshAdvisor - 1}, Weight: 1.2}},
		Touched: []int{st},
	}
}

// reweightRound is the read workloads' steady batch i: a weight-only
// batch on the Advisor tuple (student, advisor), which takes the reweight
// fast path (no recompilation; the augmentation is recomputed and the cache
// epoch bumped).
func reweightRound(student, advisor int64, i int) writeRound {
	return writeRound{
		Batch:   []mutation{{Op: "reweight", Rel: "Advisor", Vals: []int64{student, advisor}, Weight: 1.25 + 0.125*float64(i)}},
		Touched: []int{int(student)},
	}
}

// nextRound builds steady batch i (i >= 0): insert an Advisor tuple on a
// fresh advisor id, reweight the previous round's insert and delete the one
// before — at most three students, so at most three dirty blocks.
func (s *stream) nextRound() writeRound {
	i := s.round
	s.round++
	adv := func(k int) int64 { return int64(freshAdvisor + k) }
	r := writeRound{}
	r.Batch = append(r.Batch, mutation{Op: "insert", Rel: "Advisor", Vals: []int64{int64(s.student(i + 1)), adv(i)}, Weight: 1.5})
	r.Touched = append(r.Touched, s.student(i+1))
	if i >= 1 {
		r.Batch = append(r.Batch, mutation{Op: "reweight", Rel: "Advisor", Vals: []int64{int64(s.student(i)), adv(i - 1)}, Weight: 0.8})
		r.Touched = append(r.Touched, s.student(i))
	}
	if i >= 2 {
		r.Batch = append(r.Batch, mutation{Op: "delete", Rel: "Advisor", Vals: []int64{int64(s.student(i - 1)), adv(i - 2)}})
		r.Touched = append(r.Touched, s.student(i-1))
	}
	// Reads: never-repeated scans of read_scan's shape. Every batch bumps
	// the cache epochs, so each round's reads start from cold caches.
	for len(r.Reads) < writeReads {
		q, ok := s.nextRead("read_scan")
		if !ok {
			break
		}
		r.Reads = append(r.Reads, q)
	}
	return r
}
