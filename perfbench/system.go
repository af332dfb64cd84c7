package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	webreason "repro"
)

// system is one set-up instance of a workload: the server under test, the
// prepared canonical queries and, for durable workloads, the data
// directory and the follower.
type system struct {
	sp   *spec
	mode setupMode
	kb   *webreason.KB
	srv  *webreason.Server
	prep []*webreason.ServerPrepared
	// Durable workloads only.
	db   *webreason.DB
	dir  string
	fol  *webreason.Follower
	fsrv *webreason.Server
	// baseLen is the number of asserted triples the workload starts with.
	baseLen int
	// Layer timings taken during set-up.
	saturate, open time.Duration
	// reg and freg are the primary's and the follower's metric registries
	// (nil unless traced).
	reg, freg *webreason.MetricsRegistry
}

// setupMode is what an instance is set up for.
type setupMode int

const (
	modePlain  setupMode = iota // the untraced window
	modeTraced                  // the traced window: registries on
	modeCount                   // the count pass: no checkpoints, no follower
)

// setUp builds a workload instance from scratch: generate the graph, load
// the KB, build the strategy and, for durable workloads, open the data
// directory, write a bootstrap checkpoint, reopen it and restore the
// strategy from it, and bootstrap a follower. work is a directory the
// instance may create files under.
func setUp(sp *spec, work string, mode setupMode) (*system, error) {
	sys := &system{sp: sp, mode: mode}
	if mode == modeTraced {
		sys.reg, sys.freg = webreason.NewMetricsRegistry(), webreason.NewMetricsRegistry()
	}
	kb, err := initialKB(sp)
	if err != nil {
		return nil, err
	}
	sys.baseLen = kb.Len()
	t0 := time.Now()
	strat, err := webreason.NewStrategy(sp.strategy, kb)
	if err != nil {
		return nil, err
	}
	if sp.strategy == "saturation" {
		sys.saturate = time.Since(t0)
	}
	opts := webreason.ServerOptions{Obs: sys.reg}
	if sp.durable {
		if kb, strat, err = sys.openDurable(work, kb, strat); err != nil {
			sys.close()
			return nil, err
		}
		opts.DB = sys.db
	}
	sys.kb = kb
	sys.srv = webreason.NewServer(strat, opts)
	if sp.durable && mode != modeCount {
		if err := sys.startFollower(); err != nil {
			sys.close()
			return nil, err
		}
	}
	for _, q := range canonicalQueries() {
		p, err := sys.srv.Prepare(q)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.prep = append(sys.prep, p)
	}
	return sys, nil
}

// openDurable checkpoints the freshly built strategy into a new data
// directory, then reopens the directory and restores the strategy from the
// checkpoint, as a restarted server would.
func (sys *system) openDurable(work string, kb *webreason.KB, strat webreason.Strategy) (*webreason.KB, webreason.Strategy, error) {
	dir, err := os.MkdirTemp(work, "db-")
	if err != nil {
		return nil, nil, err
	}
	sys.dir = dir
	// SyncNever: a durable ack is a logged WAL record, not an fsync. On
	// the shared virtual disk the bounds were set on, the fsync under
	// SyncGroup's acks doubled its median within half an hour, which no
	// bound on the ack latency survives; the fsync instruments stay in the
	// traced run.
	dbOpts := webreason.DBOptions{
		Sync:              webreason.SyncNever,
		CheckpointRecords: sys.sp.checkpointRecords,
		Obs:               sys.reg,
	}
	if sys.mode == modeCount {
		dbOpts.CheckpointRecords, dbOpts.CheckpointBytes = -1, -1
	}
	// The bootstrap checkpoint is written without the registry, so the
	// traced run's checkpoint figures cover the window's checkpoints only.
	bootOpts := dbOpts
	bootOpts.Obs = nil
	db, err := webreason.OpenDB(filepath.Join(dir, "primary"), bootOpts)
	if err != nil {
		return nil, nil, err
	}
	if err := db.Checkpoint(strat.(webreason.DurableStrategy).DurableState()); err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := db.Close(); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	db, err = webreason.OpenDB(filepath.Join(dir, "primary"), dbOpts)
	if err != nil {
		return nil, nil, err
	}
	sys.open = time.Since(t0)
	sys.db = db
	st := db.State()
	if st == nil {
		return nil, nil, fmt.Errorf("reopened data directory holds no checkpoint")
	}
	kb, strat, err = webreason.RestoreStrategy(sys.sp.strategy, st)
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.ReplayTail(strat.Insert, strat.Delete); err != nil {
		return nil, nil, err
	}
	return kb, strat, nil
}

// startFollower bootstraps an in-process follower of the primary's data
// directory and serves it.
func (sys *system) startFollower() error {
	f, err := webreason.StartFollower(webreason.FollowerConfig{
		Dir:      filepath.Join(sys.dir, "follower"),
		Source:   webreason.NewFSFeeder(filepath.Join(sys.dir, "primary")),
		Strategy: sys.sp.strategy,
		Obs:      sys.freg,
	})
	if err != nil {
		return err
	}
	sys.fol = f
	sys.fsrv = webreason.NewFollowerServer(f, webreason.ServerOptions{Obs: sys.freg})
	return nil
}

// close stops everything the instance started and removes its files.
func (sys *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if sys.fsrv != nil {
		keep(sys.fsrv.Close())
	} else if sys.fol != nil {
		keep(sys.fol.Stop())
	}
	if sys.srv != nil {
		keep(sys.srv.Close())
	}
	if sys.db != nil {
		keep(sys.db.Close())
	}
	if sys.dir != "" {
		keep(os.RemoveAll(sys.dir))
	}
	return first
}

// settle applies every queued write and, with a follower, waits until the
// follower has applied the primary's durable history, then stops it. What
// is measured after a window is then the primary's alone: a follower's heap
// depends on when it last bootstrapped from a checkpoint, which varies from
// run to run.
func (sys *system) settle() error {
	if err := sys.srv.Flush(); err != nil {
		return err
	}
	if sys.fol == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.fol.WaitApplied(ctx, sys.db.TipPos()); err != nil {
		return err
	}
	err := sys.fsrv.Close()
	sys.fol, sys.fsrv = nil, nil
	return err
}

// diskBytes sums the sizes of the files in the primary's data directory.
func (sys *system) diskBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(filepath.Join(sys.dir, "primary"), func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// canonicalQueries parses Q1..Q14.
func canonicalQueries() []*webreason.Query {
	var qs []*webreason.Query
	for _, text := range canonicalTexts() {
		qs = append(qs, webreason.MustParseQuery(text))
	}
	return qs
}
