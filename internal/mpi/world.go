// Package mpi is an executable message-passing runtime built on goroutines
// and channels, with a virtual α–β clock per rank. It exists so the
// paper's parallel algorithms can be *run*, not just priced: the engines
// in internal/parallel move real activation/gradient data through this
// runtime and are checked for gradient-exactness against serial SGD, while
// the per-rank virtual clocks measure the communication time the analytic
// model (internal/costmodel) predicts.
//
// Time model:
//   - a message of w words sent at sender-local time t arrives (is fully
//     received) at t + α + β·w;
//   - Send charges the sender α + β·w (a blocking/rendezvous send), ISend
//     charges only the injection overhead α;
//   - Recv advances the receiver's clock to max(own clock, arrival time).
//
// With every rank executing collectives in lockstep this makes the
// measured virtual time of Bruck all-gather and recursive-halving
// all-reduce equal the paper's closed forms exactly on power-of-two
// groups (see collectives_test.go), tying the executable simulator to the
// analytic cost model.
package mpi

import (
	"fmt"
	"sync"

	"dnnparallel/internal/machine"
)

type message struct {
	tag     int
	data    []float64
	arrival float64 // receiver may consume the message at this virtual time
}

// World is a set of ranks wired all-to-all with FIFO channels.
type World struct {
	size  int
	mach  machine.Machine
	chans [][]chan message // chans[dst][src]
	stats []Stats
}

// Stats accumulates per-rank accounting.
type Stats struct {
	Rank      int
	Clock     float64 // final virtual time (seconds)
	CommTime  float64 // virtual seconds attributed to communication
	WordsSent int64
	Messages  int64
}

// NewWorld creates a world of p ranks on machine m.
func NewWorld(p int, m machine.Machine) *World {
	if p < 1 {
		panic(fmt.Sprintf("mpi: world size %d", p))
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	w := &World{size: p, mach: m, stats: make([]Stats, p)}
	w.chans = make([][]chan message, p)
	for dst := 0; dst < p; dst++ {
		w.chans[dst] = make([]chan message, p)
		for src := 0; src < p; src++ {
			// Generous buffering keeps paired exchanges deadlock-free.
			w.chans[dst][src] = make(chan message, 1024)
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Machine returns the world's machine model.
func (w *World) Machine() machine.Machine { return w.mach }

// Run executes body on every rank concurrently and blocks until all ranks
// return. It may be called repeatedly: every call starts the ranks'
// clocks at 0, while the stats' communication time, words and messages
// accumulate across calls. It returns per-rank stats snapshots.
func (w *World) Run(body func(p *Proc)) []Stats {
	var wg sync.WaitGroup
	procs := make([]*Proc, w.size)
	for r := 0; r < w.size; r++ {
		procs[r] = &Proc{world: w, rank: r, stats: &w.stats[r]}
		procs[r].stats.Rank = r
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			body(p)
			p.stats.Clock = p.clockFromStats()
		}(procs[r])
	}
	wg.Wait()
	out := make([]Stats, w.size)
	copy(out, w.stats)
	return out
}

// Stats returns the accumulated per-rank stats.
func (w *World) Stats() []Stats {
	out := make([]Stats, w.size)
	copy(out, w.stats)
	return out
}

// Proc is the per-rank handle passed to World.Run bodies.
type Proc struct {
	world *World
	rank  int
	stats *Stats

	clock float64
}

func (p *Proc) clockFromStats() float64 { return p.clock }

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.size }

// Clock returns the rank's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// CommSeconds returns the virtual time this rank has spent communicating.
func (p *Proc) CommSeconds() float64 { return p.stats.CommTime }

// transferTime returns α + β·words.
func (p *Proc) transferTime(words int) float64 {
	return p.world.mach.Alpha + p.world.mach.Beta*float64(words)
}

// send delivers data to dst with the given arrival time.
func (p *Proc) send(dst, tag int, data []float64, arrival float64) {
	cp := make([]float64, len(data))
	copy(cp, data)
	p.world.chans[dst][p.rank] <- message{tag: tag, data: cp, arrival: arrival}
	p.stats.WordsSent += int64(len(data))
	p.stats.Messages++
}

// Send performs a blocking send of data to world rank dst: the sender is
// charged the full transfer time α + β·len(data).
func (p *Proc) Send(dst, tag int, data []float64) {
	t := p.transferTime(len(data))
	arrival := p.clock + t
	p.clock += t
	p.stats.CommTime += t
	p.send(dst, tag, data, arrival)
}

// ISend performs a non-blocking send: the sender is charged only the
// injection latency α; the wire time lands on the receiver's clock. This
// models the paper's overlapped halo exchange ("non-blocking, pair-wise
// exchange while the convolution is being applied to the rest of the
// image").
func (p *Proc) ISend(dst, tag int, data []float64) {
	arrival := p.clock + p.transferTime(len(data))
	p.clock += p.world.mach.Alpha
	p.stats.CommTime += p.world.mach.Alpha
	p.send(dst, tag, data, arrival)
}

// Recv receives the next message from src, which must carry tag, and
// advances the clock to its arrival time if later.
func (p *Proc) Recv(src, tag int) []float64 {
	m := <-p.world.chans[p.rank][src]
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", p.rank, tag, src, m.tag))
	}
	if m.arrival > p.clock {
		p.stats.CommTime += m.arrival - p.clock
		p.clock = m.arrival
	}
	return m.data
}

// SendRecv exchanges data with a partner: a non-blocking send followed by
// a receive, so a paired exchange costs each side one transfer time (the
// α + β·w per-step cost the collective algorithms assume).
func (p *Proc) SendRecv(dst int, sendTag int, data []float64, src int, recvTag int) []float64 {
	arrival := p.clock + p.transferTime(len(data))
	p.send(dst, sendTag, data, arrival)
	// Charge the local cost of driving the exchange.
	t := p.transferTime(len(data))
	p.clock += t
	p.stats.CommTime += t
	m := <-p.world.chans[p.rank][src]
	if m.tag != recvTag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", p.rank, recvTag, src, m.tag))
	}
	if m.arrival > p.clock {
		p.stats.CommTime += m.arrival - p.clock
		p.clock = m.arrival
	}
	return m.data
}
