// Package chaos is the crash-consistency harness: it enumerates every
// mutating filesystem operation ("fault point") in the durable paths —
// kvdb Put, a follower's kvdb AppendReplica, kvdb Compact,
// fsatomic.WriteFile, and the SGX NVRAM counter write-through — and for
// each point replays the workload with every applicable fault mode
// (crash before/after, torn write, EIO, ENOSPC) injected exactly there.
// After each injected run it "reboots" (reopens the directory on the
// real filesystem) and asserts the durability invariants:
//
//   - the store reopens — crash residue is repaired, never ErrCorrupt;
//   - no acknowledged write is lost;
//   - a follower crashed mid-apply holds a chain-verified prefix of its
//     leader's history and converges once the feed resumes;
//   - the NVRAM counter never regresses, and an acked increment sticks;
//   - an atomically-replaced file holds the old or the new contents in
//     full, never a mixture, and strands no *.tmp orphan past reopen.
//
// Everything is deterministic: the op trace of a workload is fixed, and
// fault.Plan's seed pins torn-write prefixes, so a failing (scenario,
// step, mode) triple replays bit-for-bit. The package is framework-free
// — Run returns a Summary — so the same sweep backs the Go tests and
// the `palaemonreport chaos` CI artifact.
package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"palaemon/internal/cryptoutil"
	"palaemon/internal/fault"
	"palaemon/internal/fsatomic"
	"palaemon/internal/kvdb"
	"palaemon/internal/sgx"
)

// dbKey is a fixed key so every replay of a workload seals identical
// bytes; the harness tests crash consistency, not key hygiene.
var dbKey = cryptoutil.Key(cryptoutil.Digest([]byte("chaos-harness-fixed-key")))

// Violation is one broken durability invariant, addressed precisely
// enough to replay: scenario + step + mode + seed reproduce it.
type Violation struct {
	Scenario string     `json:"scenario"`
	Step     int        `json:"step"`
	Mode     fault.Mode `json:"mode"`
	Op       fault.Op   `json:"op"`
	Detail   string     `json:"detail"`
}

// ScenarioResult is one workload's sweep.
type ScenarioResult struct {
	Scenario string `json:"scenario"`
	// FaultPoints is the number of distinct mutating operations the
	// recording run observed — each is enumerated with every mode.
	FaultPoints int `json:"fault_points"`
	// Cases is the number of (step, mode) injections executed.
	Cases      int         `json:"cases"`
	Violations []Violation `json:"violations,omitempty"`
}

// Summary aggregates the whole sweep; CI serialises it as the
// chaos-sweep artifact.
type Summary struct {
	Seed        int64            `json:"seed"`
	FaultPoints int              `json:"fault_points"`
	Cases       int              `json:"cases"`
	Violations  int              `json:"violations"`
	Results     []ScenarioResult `json:"results"`
}

// scenario couples a deterministic workload with its post-reboot
// invariant check. The workload persists through fsys and returns what
// it saw acknowledged; verify reopens dir on the real filesystem and
// holds the acks against it.
type scenario struct {
	name     string
	workload func(fsys fault.FS, dir string) any
	verify   func(dir string, acked any) error
}

// Run sweeps every scenario. Scratch directories are created under
// parent (one per case); seed drives torn-write offsets.
func Run(parent string, seed int64) (Summary, error) {
	sum := Summary{Seed: seed}
	for _, sc := range scenarios() {
		res, err := runScenario(parent, seed, sc)
		if err != nil {
			return sum, fmt.Errorf("chaos: %s: %w", sc.name, err)
		}
		sum.Results = append(sum.Results, res)
		sum.FaultPoints += res.FaultPoints
		sum.Cases += res.Cases
		sum.Violations += len(res.Violations)
	}
	return sum, nil
}

func runScenario(parent string, seed int64, sc scenario) (ScenarioResult, error) {
	res := ScenarioResult{Scenario: sc.name}

	// Recording run: no injection, collect the op trace and prove the
	// workload's invariants hold on a clean filesystem — a harness that
	// cannot pass its own baseline reports noise, not faults.
	dir, err := caseDir(parent, sc.name, 0, "record")
	if err != nil {
		return res, err
	}
	rec := fault.NewInjector(fault.OS, fault.Plan{})
	acked := sc.workload(rec, dir)
	if err := sc.verify(dir, acked); err != nil {
		return res, fmt.Errorf("baseline (no faults) violates invariants: %w", err)
	}
	trace := rec.Trace()
	res.FaultPoints = len(trace)

	for step := 1; step <= len(trace); step++ {
		op := trace[step-1]
		for _, mode := range fault.Modes(op.Kind) {
			dir, err := caseDir(parent, sc.name, step, string(mode))
			if err != nil {
				return res, err
			}
			in := fault.NewInjector(fault.OS, fault.Plan{Step: step, Mode: mode, Seed: seed})
			acked := sc.workload(in, dir)
			res.Cases++
			if err := sc.verify(dir, acked); err != nil {
				res.Violations = append(res.Violations, Violation{
					Scenario: sc.name, Step: step, Mode: mode, Op: op, Detail: err.Error(),
				})
			}
		}
	}
	return res, nil
}

func caseDir(parent, name string, step int, mode string) (string, error) {
	dir := filepath.Join(parent, fmt.Sprintf("%s-%03d-%s", name, step, mode))
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return "", err
	}
	return dir, nil
}

func scenarios() []scenario {
	return []scenario{
		{name: "kvdb-put", workload: kvdbPutWorkload, verify: kvdbVerify},
		{name: "kvdb-replica-append", workload: kvdbReplicaWorkload, verify: kvdbReplicaVerify},
		{name: "kvdb-compact", workload: kvdbCompactWorkload, verify: kvdbVerify},
		{name: "fsatomic-replace", workload: fsatomicWorkload, verify: fsatomicVerify},
		{name: "nvram-counter", workload: nvramWorkload, verify: nvramVerify},
	}
}

// --- kvdb scenarios ------------------------------------------------------

// kvdbAcked maps key → value for every Put whose commit returned nil.
type kvdbAcked map[string]string

// kvdbPutWorkload appends a short sequence of Puts. Single-writer, so
// the op trace is deterministic: each Put finds the log idle and writes
// and fsyncs its own one-record batch before the next can enqueue.
func kvdbPutWorkload(fsys fault.FS, dir string) any {
	acked := kvdbAcked{}
	db, err := kvdb.Open(dir, dbKey, kvdb.Options{FS: fsys})
	if err != nil {
		return acked
	}
	for i := 0; i < 4; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if db.Put("b", k, []byte(v)) == nil {
			acked[k] = v
		}
	}
	db.Close()
	return acked
}

// kvdbCompactWorkload crosses a Compact mid-stream: records before it
// must survive the snapshot + WAL-truncation dance, records after it
// land on the fresh WAL.
func kvdbCompactWorkload(fsys fault.FS, dir string) any {
	acked := kvdbAcked{}
	db, err := kvdb.Open(dir, dbKey, kvdb.Options{FS: fsys})
	if err != nil {
		return acked
	}
	for i := 0; i < 3; i++ {
		k, v := fmt.Sprintf("pre%d", i), fmt.Sprintf("v%d", i)
		if db.Put("b", k, []byte(v)) == nil {
			acked[k] = v
		}
	}
	db.Compact() // a failed or torn compact must not lose the puts above
	for i := 0; i < 2; i++ {
		k, v := fmt.Sprintf("post%d", i), fmt.Sprintf("v%d", i)
		if db.Put("b", k, []byte(v)) == nil {
			acked[k] = v
		}
	}
	db.Close()
	return acked
}

// kvdbVerify reboots the store and holds every ack against it.
func kvdbVerify(dir string, state any) error {
	acked := state.(kvdbAcked)
	db, err := kvdb.Open(dir, dbKey, kvdb.Options{})
	if err != nil {
		return fmt.Errorf("reopen after fault: %w", err)
	}
	defer db.Close()
	for k, want := range acked {
		got, err := db.Get("b", k)
		if err != nil {
			return fmt.Errorf("acked write %s lost: %w", k, err)
		}
		if string(got) != want {
			return fmt.Errorf("acked write %s: got %q, want %q", k, got, want)
		}
	}
	return nil
}

// --- kvdb replica scenario -----------------------------------------------

// replicaFeed is what the follower workload saw: the leader's history
// and end state, and how many leading entries sit in batches whose
// AppendReplica returned nil.
type replicaFeed struct {
	entries []kvdb.Entry
	leader  *kvdb.State
	acked   int
}

// replicaBatches cuts the leader's replicaEntries-long feed into two
// multi-entry batches. A single writer only ever leads one-record
// batches, so this is the deterministic way to put a multi-record batch
// (one Write, one Sync) under every fault mode.
var replicaBatches = []int{2, 3}

const replicaEntries = 5

// kvdbReplicaWorkload builds a short leader history on the real
// filesystem (the leader is not under test; entries are plaintext plus
// chain hashes, so every replay produces the same feed), then has a
// follower on the injected filesystem apply it batch by batch — the
// follower-crash-mid-apply path.
func kvdbReplicaWorkload(fsys fault.FS, dir string) any {
	var st replicaFeed
	leader, err := kvdb.Open(filepath.Join(dir, "leader"), dbKey, kvdb.Options{RetainEntries: -1, NoFsync: true})
	if err != nil {
		return st
	}
	defer leader.Close()
	for i := 0; i < 3; i++ {
		leader.Put("b", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	leader.Delete("b", "k0")
	leader.SetVersion(9)
	st.entries, _ = leader.Entries(0, 0)
	st.leader, _ = leader.ExportState()
	if len(st.entries) != replicaEntries {
		return st // kvdbReplicaVerify reports it
	}

	replica, err := kvdb.Open(filepath.Join(dir, "replica"), dbKey, kvdb.Options{FS: fsys})
	if err != nil {
		return st
	}
	defer replica.Close()
	for _, n := range replicaBatches {
		if replica.AppendReplica(st.entries[st.acked:st.acked+n]) != nil {
			break
		}
		st.acked += n
	}
	return st
}

// kvdbReplicaVerify reboots the follower and requires: it reopens; it
// holds at least every acked batch in full and nothing the leader never
// wrote; the leader's remaining entries extend it — AppendReplica accepts
// entries[k:] only if entry k+1 chains onto the replica's head at seq k,
// so what survived is a chain-verified prefix (a torn batch may keep
// whole leading records of an unacked batch; never anything past a
// hole); and the re-fed replica equals the leader's exported state.
func kvdbReplicaVerify(dir string, state any) error {
	st := state.(replicaFeed)
	if len(st.entries) != replicaEntries || st.leader == nil {
		return errors.New("workload could not build the leader history")
	}
	replica, err := kvdb.Open(filepath.Join(dir, "replica"), dbKey, kvdb.Options{})
	if err != nil {
		return fmt.Errorf("reopen replica after fault: %w", err)
	}
	defer replica.Close()
	k := int(replica.Seq())
	if k < st.acked || k > len(st.entries) {
		return fmt.Errorf("replica holds %d records after reboot; %d were acked, the leader wrote %d", k, st.acked, len(st.entries))
	}
	if err := replica.AppendReplica(st.entries[k:]); err != nil {
		return fmt.Errorf("re-feed from seq %d: %w", k, err)
	}
	got, err := replica.ExportState()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, st.leader) {
		return fmt.Errorf("re-fed replica (seq %d) did not converge on the leader's exported state (seq %d)", got.Seq, st.leader.Seq)
	}
	return nil
}

// --- fsatomic scenario ---------------------------------------------------

// fsatomicAcked records whether the replacement write returned nil.
type fsatomicAcked struct{ replaced bool }

const (
	fsatomicOld = "old contents — must survive any failed replace"
	fsatomicNew = "new contents — must be complete once acked"
)

// fsatomicWorkload seeds a file on the real filesystem, then atomically
// replaces it through the injected one.
func fsatomicWorkload(fsys fault.FS, dir string) any {
	path := filepath.Join(dir, "state.bin")
	if err := fsatomic.WriteFile(path, []byte(fsatomicOld), 0o600); err != nil {
		return fsatomicAcked{}
	}
	err := fsatomic.WriteFileFS(fsys, path, []byte(fsatomicNew), 0o600)
	return fsatomicAcked{replaced: err == nil}
}

// fsatomicVerify asserts all-or-nothing replacement and that a reopen
// (modelled by SweepTmp, as kvdb/NVRAM open paths run it) clears any
// stranded temp file.
func fsatomicVerify(dir string, state any) error {
	acked := state.(fsatomicAcked)
	raw, err := os.ReadFile(filepath.Join(dir, "state.bin"))
	if err != nil {
		return fmt.Errorf("destination unreadable after fault: %w", err)
	}
	switch string(raw) {
	case fsatomicNew:
	case fsatomicOld:
		if acked.replaced {
			return errors.New("replace acked but old contents on disk")
		}
	default:
		return fmt.Errorf("destination is neither old nor new contents (%d bytes) — torn replace", len(raw))
	}
	if _, err := fsatomic.SweepTmp(fault.OS, dir); err != nil {
		return fmt.Errorf("sweep after reboot: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			return fmt.Errorf("temp orphan %s survived sweep", e.Name())
		}
	}
	return nil
}

// --- NVRAM scenario ------------------------------------------------------

// nvramAcked carries the counter value before the faulted increment and
// whether the increment was acknowledged.
type nvramAcked struct {
	opened bool
	pre    uint64
	acked  bool
}

const nvramCounterName = "chaos-ctr"

// nvramWorkload mints a durable platform and advances a counter on the
// real filesystem, then reopens it through the injected one and
// increments again — the write-through under test.
func nvramWorkload(fsys fault.FS, dir string) any {
	p, err := sgx.OpenPlatform(sgx.Options{StateDir: dir})
	if err != nil {
		return nvramAcked{}
	}
	if _, err := p.Counter(nvramCounterName).Increment(); err != nil {
		p.Close()
		return nvramAcked{}
	}
	p.Close()

	p, err = sgx.OpenPlatform(sgx.Options{StateDir: dir, FS: fsys})
	if err != nil {
		return nvramAcked{}
	}
	st := nvramAcked{opened: true, pre: p.Counter(nvramCounterName).Value()}
	_, err = p.Counter(nvramCounterName).Increment()
	st.acked = err == nil
	p.Close()
	return st
}

// nvramVerify reboots the platform and asserts the counter moved
// monotonically: never below the pre-fault value, never past the single
// increment, and exactly pre+1 when that increment was acked.
func nvramVerify(dir string, state any) error {
	st := state.(nvramAcked)
	if !st.opened {
		return errors.New("workload could not open the durable platform")
	}
	p, err := sgx.OpenPlatform(sgx.Options{StateDir: dir})
	if err != nil {
		return fmt.Errorf("reopen platform after fault: %w", err)
	}
	defer p.Close()
	got := p.Counter(nvramCounterName).Value()
	switch {
	case got < st.pre:
		return fmt.Errorf("counter regressed: %d → %d", st.pre, got)
	case got > st.pre+1:
		return fmt.Errorf("counter overshot: %d → %d after one increment", st.pre, got)
	case st.acked && got != st.pre+1:
		return fmt.Errorf("acked increment lost: counter %d, want %d", got, st.pre+1)
	}
	return nil
}
