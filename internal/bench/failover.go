package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ha"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// CheckpointIntervals is the checkpoint-spacing sweep (in commits between
// checkpoints) the failover experiment's recovery part runs; 0 is the
// uncheckpointed baseline, whose recovery replays the whole log.
var CheckpointIntervals = []int{0, 16384, 4096, 1024}

// GroupLeases is the lease-duration sweep of the automatic-election part:
// the lease is the knob trading steady-state renewal traffic against
// failover latency, so recovery time is reported as a multiple of it.
var GroupLeases = []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}

// FailoverJSONPath, when non-empty (cmd/bench -json), receives the failover
// experiment's JSON artifact: recovery time vs lease duration plus the
// zero-loss / fencing audit of each run.
var FailoverJSONPath string

// recoveryPoint builds a log of `commits` batched commits with a
// checkpoint every `interval` commits (0 = never), then measures a cold
// recovery from it: wall time and how many WAL records were actually
// replayed (one commit-batch record covers up to 64 commits).
func recoveryPoint(commits, interval int) (records, replayed int64, recovery time.Duration, err error) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{BatchBytes: 64 << 10, BatchDelay: time.Millisecond}, ledger)
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.Close()
	// The bounded-memory mode (Algorithm 3) is the production shape:
	// lastCommit and the commit table are sliding windows, so the
	// checkpoint snapshot stays small and recovery cost is dominated by
	// the replayed suffix.
	cfg := oracle.Config{Engine: oracle.SI, MaxRows: 4096, MaxCommits: 8192, WAL: w, TSO: tso.New(100_000, w)}
	so, err := oracle.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	const batch = 64
	reqs := make([]oracle.CommitRequest, 0, batch)
	records = 0
	for done := 0; done < commits; {
		reqs = reqs[:0]
		for len(reqs) < batch && done+len(reqs) < commits {
			ts, err := so.Begin()
			if err != nil {
				return 0, 0, 0, err
			}
			reqs = append(reqs, oracle.CommitRequest{
				StartTS:  ts,
				WriteSet: []oracle.RowID{oracle.RowID(done + len(reqs))},
			})
		}
		if _, err := so.CommitBatch(reqs); err != nil {
			return 0, 0, 0, err
		}
		records++
		prev := done
		done += len(reqs)
		if interval > 0 && done/interval > prev/interval {
			if err := so.Checkpoint(); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	w.Flush()

	start := time.Now()
	recovered, err := oracle.Recover(oracle.Config{Engine: oracle.SI, MaxRows: 4096, MaxCommits: 8192, TSO: tso.New(0, nil)}, ledger)
	if err != nil {
		return 0, 0, 0, err
	}
	recovery = time.Since(start)
	st := recovered.Stats()
	return records, st.ReplayedRecords, recovery, nil
}

// electionResult is one point of the automatic-election sweep: a 3-member
// group under wire-level commit load loses its leader with no handover and
// heals on its own.
type electionResult struct {
	LeaseMS        float64 `json:"lease_ms"`
	RecoveryMS     float64 `json:"recovery_ms"`
	RecoveryLeases float64 `json:"recovery_leases"`
	PromotedEpoch  uint64  `json:"promoted_epoch"`
	Acked          int     `json:"acked_commits"`
	Lost           int     `json:"lost"`
	StandbyReads   int64   `json:"standby_reads_during_outage"`
	FencedAppends  int     `json:"fenced_late_appends"`
}

// failoverReport is the JSON artifact of the whole experiment.
type failoverReport struct {
	Experiment string           `json:"experiment"`
	Quick      bool             `json:"quick"`
	Elections  []electionResult `json:"elections"`
}

// electionGap measures one automatic failover at the wire: three group
// members front three servers, a netsrv.DialFailover client drives commit
// load, the leader is killed (member and server die together, no
// handover), and the group detects the lease expiry, elects, fences the
// dead epoch and resumes — while a second client keeps reading statuses
// from a follower's standby shadow. Recovery is last pre-kill ack to first
// post-kill ack as the load client sees it, i.e. it includes detection,
// election, promotion and the client's own redirect-chasing reconnect.
func electionGap(lease time.Duration) (electionResult, error) {
	store := ha.NewMemStore(3)
	var (
		srvs    []*netsrv.Server
		members []*ha.Member
		addrs   []string
	)
	defer func() {
		for i := range srvs {
			srvs[i].Close()
			members[i].Stop()
		}
	}()
	for i := 0; i < 3; i++ {
		srv := netsrv.NewServer(nil)
		srv.Logf = nil
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return electionResult{}, err
		}
		m := ha.NewMember(ha.MemberConfig{
			ID:        i,
			Addr:      addr,
			Store:     store,
			Oracle:    oracle.Config{Engine: oracle.SI},
			WAL:       wal.Config{BatchBytes: 64 << 10, BatchDelay: time.Millisecond},
			Lease:     lease,
			Bootstrap: i == 0,
			OnLead:    func(so *oracle.StatusOracle, epoch uint64) { srv.Install(so) },
			OnFollow:  func(epoch uint64) { srv.Depose() },
		})
		srv.LeaderHint = m.LeaderHint
		srv.StandbyReads = m.QueryBatchInto
		if err := m.Start(); err != nil {
			srv.Close()
			return electionResult{}, err
		}
		srvs, members, addrs = append(srvs, srv), append(members, m), append(addrs, addr)
	}
	lead := -1
	for deadline := time.Now().Add(5 * time.Second); lead < 0 && time.Now().Before(deadline); {
		for i, m := range members {
			if m.Role() == ha.RoleLeader && srvs[i].Promoted() {
				lead = i
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if lead < 0 {
		return electionResult{}, fmt.Errorf("election: no serving leader")
	}

	client, err := netsrv.DialFailover(addrs...)
	if err != nil {
		return electionResult{}, err
	}
	defer client.Close()

	type ack struct{ start, commit uint64 }
	var (
		mu           sync.Mutex
		acks         []ack
		firstOK      atomic.Int64 // first ack after the kill (unix nanos)
		killed       atomic.Int64
		dead         atomic.Bool  // the old leader's server no longer answers
		standbyReads atomic.Int64 // follower-shadow answers during the outage
		stop         atomic.Bool
		wg           sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			// Only an attempt begun after the old leader's server closed
			// can end the outage: one in flight across the kill may still
			// be acked by the dying leader, before any election.
			afterKill := dead.Load()
			ts, err := client.Begin()
			if err != nil {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			res, err := client.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}})
			if err != nil || !res.Committed {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			if afterKill && firstOK.Load() == 0 {
				firstOK.Store(time.Now().UnixNano())
			}
			mu.Lock()
			acks = append(acks, ack{ts, res.CommitTS})
			mu.Unlock()
		}
	}()
	// Standby-read availability probe against a follower that survives the
	// kill: its shadow must keep answering while the group has no leader.
	probe, err := netsrv.Dial(addrs[(lead+1)%3])
	if err != nil {
		stop.Store(true)
		wg.Wait()
		return electionResult{}, err
	}
	defer probe.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var ts uint64 = 1
			mu.Lock()
			if len(acks) > 0 {
				ts = acks[len(acks)-1].start
			}
			mu.Unlock()
			if _, err := probe.ResolveStatus(ts); err == nil {
				if killed.Load() > 0 && firstOK.Load() == 0 {
					standbyReads.Add(1)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	steady := 50 * time.Millisecond
	if lease > steady {
		steady = lease
	}
	time.Sleep(steady)
	oldSO := members[lead].Oracle()
	killed.Store(time.Now().UnixNano())
	members[lead].Stop() // crash: renewals cease, nothing handed over
	srvs[lead].Close()
	dead.Store(true)

	deadline := time.Now().Add(30*lease + 5*time.Second)
	for firstOK.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if firstOK.Load() == 0 {
		return electionResult{}, fmt.Errorf("election: no commit succeeded after the kill (lease %v)", lease)
	}
	gap := time.Duration(firstOK.Load() - killed.Load())

	var epoch uint64
	for i, m := range members {
		if i != lead && m.Role() == ha.RoleLeader {
			epoch = m.Epoch()
		}
	}

	// Audit every acked commit — both sides of the crash — through the
	// failover client (now following the new leader).
	mu.Lock()
	all := append([]ack(nil), acks...)
	mu.Unlock()
	lost := 0
	for _, a := range all {
		st, err := client.ResolveStatus(a.start)
		if err != nil || st.Status != oracle.StatusCommitted || st.CommitTS != a.commit {
			lost++
		}
	}

	// Revive the dead leader's oracle: the sealed epoch fails every late
	// append, so it can never double-ack.
	fenced := 0
	for i := 0; i < 3; i++ {
		_, err := oldSO.Commit(oracle.CommitRequest{
			StartTS:  1<<40 + uint64(i),
			WriteSet: []oracle.RowID{oracle.RowID(1<<40 + uint64(i))},
		})
		if errors.Is(err, wal.ErrFenced) {
			fenced++
		}
	}

	return electionResult{
		LeaseMS:        float64(lease) / float64(time.Millisecond),
		RecoveryMS:     float64(gap) / float64(time.Millisecond),
		RecoveryLeases: float64(gap) / float64(lease),
		PromotedEpoch:  epoch,
		Acked:          len(all),
		Lost:           lost,
		StandbyReads:   standbyReads.Load(),
		FencedAppends:  fenced,
	}, nil
}

func init() {
	register(Experiment{
		Name:  "failover",
		Title: "Checkpointed recovery bound and self-healing group failover: recovery time vs checkpoint interval and vs lease",
		Run: func(quick bool) (string, error) {
			var b strings.Builder
			b.WriteString(header("Failover: bounded recovery and elected, fenced promotion"))

			// Not a multiple of any interval, so the log always ends
			// with a real post-checkpoint suffix (mid-interval crash).
			commits := 60000
			intervals := CheckpointIntervals
			if quick {
				commits = 10000
				intervals = []int{0, 1024}
			}
			b.WriteString("\ncold recovery vs checkpoint interval (oracle.Recover over the full stack):\n\n")
			fmt.Fprintf(&b, "%-22s %10s %10s %14s\n", "ckpt every (commits)", "wal recs", "replayed", "recovery")
			var base time.Duration
			for _, interval := range intervals {
				records, replayed, recovery, err := recoveryPoint(commits, interval)
				if err != nil {
					return "", err
				}
				label := "never"
				if interval > 0 {
					label = fmt.Sprintf("%d", interval)
				}
				if interval == 0 {
					base = recovery
				}
				speedup := ""
				if interval > 0 && base > 0 {
					speedup = fmt.Sprintf(" (%.1fx faster)", float64(base)/float64(recovery))
				}
				fmt.Fprintf(&b, "%-22s %10d %10d %14v%s\n", label, records, replayed, recovery.Round(10*time.Microsecond), speedup)
			}
			b.WriteString("\nreplayed counts come from oracle.Stats.ReplayedRecords: with checkpoints,\n")
			b.WriteString("recovery replays only the post-checkpoint suffix, so its cost is bounded\n")
			b.WriteString("by the checkpoint interval instead of the history length.\n")

			leases := GroupLeases
			if quick {
				leases = leases[1:2] // one representative point
			}
			b.WriteString("\nself-healing group: automatic election, recovery time vs lease duration\n")
			b.WriteString("(3 members, leader killed under wire load, no external trigger):\n\n")
			fmt.Fprintf(&b, "%-10s %12s %10s %8s %8s %6s %14s %8s\n",
				"lease", "recovery", "x lease", "epoch", "acked", "lost", "standby reads", "fenced")
			var points []electionResult
			for _, lease := range leases {
				p, err := electionGap(lease)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "%-10v %10.1fms %9.1fx %8d %8d %6d %14d %8d\n",
					lease, p.RecoveryMS, p.RecoveryLeases, p.PromotedEpoch, p.Acked, p.Lost, p.StandbyReads, p.FencedAppends)
				if p.Lost > 0 {
					return "", fmt.Errorf("election (lease %v): %d acked commits lost or invisible", lease, p.Lost)
				}
				if p.FencedAppends != 3 {
					return "", fmt.Errorf("election (lease %v): only %d/3 late appends by the dead leader were fenced", lease, p.FencedAppends)
				}
				if bound := 30*lease + 3*time.Second; time.Duration(p.RecoveryMS*float64(time.Millisecond)) > bound {
					return "", fmt.Errorf("election (lease %v): recovery %.1fms exceeds the sanity bound %v", lease, p.RecoveryMS, bound)
				}
				points = append(points, p)
			}
			b.WriteString("\nrecovery = last pre-kill ack to first post-kill ack at the failover client:\n")
			b.WriteString("lease-expiry detection + quorum-sealed election + fenced promotion + the\n")
			b.WriteString("client's redirect-chasing reconnect; it scales with the lease, the single\n")
			b.WriteString("availability/traffic knob. standby reads count follower-shadow answers\n")
			b.WriteString("landed while the group had no leader at all.\n")

			if FailoverJSONPath != "" {
				rep := failoverReport{Experiment: "failover", Quick: quick, Elections: points}
				data, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					return "", err
				}
				if err := os.WriteFile(FailoverJSONPath, append(data, '\n'), 0o644); err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "\n[json artifact written to %s]\n", FailoverJSONPath)
			}
			return b.String(), nil
		},
	})
}
