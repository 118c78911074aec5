package invariant

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/trace"
)

// ReportFunc receives the findings a checking hook produced for one
// completed transaction. It is only called when there is at least one
// finding; filter with Hard to act on genuine violations only.
type ReportFunc func(op mesif.Op, core topology.CoreID, l addr.LineAddr, found []Violation)

// DefaultEpoch is the full-Check period AttachIncremental uses when the
// caller passes epoch <= 0: one machine-wide Check every 2^20 transactions.
// The incremental dirty-set check catches any damage a transaction does to
// the lines it touched the moment it happens; the epoch Check is only the
// safety net for what a per-line check cannot see — an entry filed under
// the wrong home agent (the agent-filing scan). A full Check is O(every
// cached line) — the sweep-based CheckAll runs in ~0.2 s even on a
// capacity-loaded machine, and the attached epoch checker reuses its
// gather/sort buffers across epochs — so the default period amortizes it
// to noise (~0.2 µs/transaction); callers running short adversarial
// workloads should pass a much smaller epoch instead.
const DefaultEpoch = 1 << 20

// Attach installs the machine-wide checker as the engine's AfterTransaction
// debug hook: after every completed Read, Write, and Flush the full machine
// is validated and any findings (violations and stale states alike) are
// passed to report together with the transaction that exposed them.
//
// The hook chains: a previously installed AfterTransaction hook keeps
// firing (after the checker's report). The returned detach func restores
// the hook that was installed before this call; when hooks are stacked,
// detach in LIFO order — detaching out of order re-installs a stale chain.
//
// The full Check runs after every transaction, so attach only for debugging
// and small verification workloads; AttachIncremental is the cheap form the
// experiment harness leaves on by default.
//
// When a fault injector is attached to the engine, the hook also enforces
// the recovery-pricing obligation: any injector penalty still pending after
// a completed transaction means a repair was not charged into the returned
// latency, and is reported as a KindRecovery violation.
func Attach(e *mesif.Engine, report ReportFunc) (detach func()) {
	return attach(e, report, func(addr.LineAddr) []Violation { return Check(e.M) })
}

// IncrementalOptions tunes AttachIncrementalOpts.
type IncrementalOptions struct {
	// Epoch is the full-Check period: every Epoch transactions the whole
	// machine is validated (agent-filing scan included) instead of just
	// the dirty set. 0 means DefaultEpoch; NoEpoch disables the periodic
	// full Check entirely — for harness runs whose machines cache so many
	// lines that even a rare full Check dominates, and which end with an
	// explicit Check of their own (the chaos sweep checks every point).
	Epoch int
	// Sample checks only every Sample-th transaction's dirty set (the
	// skipped transactions' dirty sets are discarded, not accumulated).
	// A violating state persists in the machine until something repairs
	// it, so on working sets that are revisited — latency matrices,
	// multi-pass streams — a violation is still caught within about
	// Sample transactions of appearing; a single-pass stream's damage
	// waits for the epoch or end-of-run Check. 0 or 1 checks every
	// transaction.
	Sample int
	// Fast runs the triage-fidelity checker (NewFastChecker) instead of
	// the full-fidelity one; periodic full Checks are always full
	// fidelity.
	Fast bool
	// VerboseStale composes detail strings for ClassStale findings. By
	// default the attached checkers (incremental and epoch alike) run
	// lean (Checker.LeanStale): the harness consumers only count stale
	// findings, never read their details, and composing them dominates
	// checking cost on capacity-loaded machines. Hard-violation details
	// are always composed. Set VerboseStale for debugging sessions that
	// read the stale text.
	VerboseStale bool
}

// NoEpoch as IncrementalOptions.Epoch disables periodic full Checks.
const NoEpoch = -1

// AttachIncremental installs a per-line incremental checker as the engine's
// AfterTransaction debug hook. It enables the engine's dirty-set tracking
// (Engine.SetDirtyTracking) and, after each transaction, validates only the
// lines the transaction touched — the requested line, eviction victims at
// every level, HitME-displaced lines, and fault-corrupted lines — instead
// of the whole machine. Any line outside the dirty set is untouched by
// construction, so per-line findings cannot hide there; every epoch
// transactions (DefaultEpoch when epoch <= 0) a full Check runs anyway,
// covering the one cross-line scan CheckLines skips (agent filing).
//
// The per-transaction cost is proportional to the handful of lines a
// transaction touches, not to cache capacity, which makes it cheap enough
// to leave enabled for entire experiment sweeps. Chaining, detach order,
// and the KindRecovery obligation match Attach. Detaching also disables
// the engine's dirty-set tracking.
func AttachIncremental(e *mesif.Engine, epoch int, report ReportFunc) (detach func()) {
	return AttachIncrementalOpts(e, IncrementalOptions{Epoch: epoch}, report)
}

// AttachIncrementalOpts is AttachIncremental with sampling, fidelity, and
// epoch control; see IncrementalOptions. The experiment harness attaches
// every engine this way by default (package experiments).
func AttachIncrementalOpts(e *mesif.Engine, o IncrementalOptions, report ReportFunc) (detach func()) {
	if o.Epoch == 0 {
		o.Epoch = DefaultEpoch
	}
	if o.Sample <= 0 {
		o.Sample = 1
	}
	e.SetDirtyTracking(true)
	c := NewChecker(e.M)
	if o.Fast {
		c = NewFastChecker(e.M)
	}
	// The epoch Check keeps its own full-fidelity checker so the sweep
	// buffers survive between epochs; its findings (like the incremental
	// ones) are valid until the next epoch fires.
	full := NewChecker(e.M)
	if !o.VerboseStale {
		c.LeanStale()
		full.LeanStale()
	}
	// n counts transactions since attach by the engine's sequence number,
	// not by hook invocations: an Engine.Restore advances Seq past the
	// transactions it stands in for, so the sample phase after a restore
	// is the phase a replay would have left. (An epoch boundary inside a
	// restored span is skipped; the restored state is what a checked
	// replay produced.)
	base := e.Seq()
	inner := attach(e, report, func(addr.LineAddr) []Violation {
		n := e.Seq() - base
		if o.Epoch > 0 && n%uint64(o.Epoch) == 0 {
			return full.CheckAll()
		}
		if o.Sample > 1 && n%uint64(o.Sample) != 0 {
			return nil
		}
		return c.CheckLines(e.DirtyLines())
	})
	return func() {
		inner()
		e.SetDirtyTracking(false)
	}
}

// attach wires check into the engine's AfterTransaction hook, appending the
// KindRecovery pending-penalty finding, reporting when anything was found,
// and chaining to any previously installed hook.
func attach(e *mesif.Engine, report ReportFunc, check func(l addr.LineAddr) []Violation) (detach func()) {
	prev := e.AfterTransaction
	e.AfterTransaction = func(op mesif.Op, core topology.CoreID, l addr.LineAddr) {
		found := check(l)
		if f := e.Faults; f != nil {
			if ns := f.PendingPenaltyNs(); ns != 0 {
				found = append(found, Violation{
					Kind:   KindRecovery,
					Class:  ClassViolation,
					Line:   l,
					Detail: fmt.Sprintf("injector penalty of %.1f ns left undrained after the transaction", ns),
				})
			}
		}
		if len(found) > 0 {
			report(op, core, l, found)
		}
		if prev != nil {
			prev(op, core, l)
		}
	}
	return func() { e.AfterTransaction = prev }
}

// TxViolation is one hard violation a Recorder captured, together with the
// transaction that exposed it.
type TxViolation struct {
	Op   mesif.Op
	Core topology.CoreID
	V    Violation
}

// String formats the captured violation for logs and error messages.
func (t TxViolation) String() string {
	return fmt.Sprintf("after %v by core %d: %v", t.Op, t.Core, t.V)
}

// maxRecorded caps how many hard violations a Recorder stores; beyond it
// only the count grows. A healthy engine produces zero, so the cap only
// bounds memory when something is badly broken.
const maxRecorded = 64

// Recorder is a ReportFunc target that keeps hard violations and counts
// stale findings, for harness callers that want to run checked and ask
// afterwards whether anything went wrong. Use r.Record as the report
// argument to Attach or AttachIncremental.
type Recorder struct {
	// Violations holds the captured hard findings, at most maxRecorded.
	Violations []TxViolation
	// HardCount counts every hard violation seen, including ones dropped
	// past the cap. StaleCount counts ClassStale findings (documented
	// imprecision, never an error).
	HardCount  int
	StaleCount int

	// BundlePath names the repro bundle written for the first hard
	// violation when CaptureTo armed the recorder (capture.go);
	// BundleErr holds the write failure instead, if any.
	BundlePath string
	BundleErr  error

	capture    *trace.Recorder
	captureDir string
}

// Record is the ReportFunc that feeds the recorder.
func (r *Recorder) Record(op mesif.Op, core topology.CoreID, l addr.LineAddr, found []Violation) {
	for _, v := range found {
		if v.Class != ClassViolation {
			r.StaleCount++
			continue
		}
		r.HardCount++
		tv := TxViolation{Op: op, Core: core, V: v}
		if len(r.Violations) < maxRecorded {
			r.Violations = append(r.Violations, tv)
		}
		if r.HardCount == 1 {
			r.maybeCapture(tv)
		}
	}
}

// Err returns nil when no hard violation has been recorded, and otherwise
// an error quoting the first one and the total count.
func (r *Recorder) Err() error {
	if r.HardCount == 0 {
		return nil
	}
	err := fmt.Errorf("invariant checker recorded %d hard violation(s); first: %v", r.HardCount, r.Violations[0])
	if r.BundlePath != "" {
		err = fmt.Errorf("%w (repro bundle: %s)", err, r.BundlePath)
	}
	return err
}

// Reset clears the recorder for reuse and re-arms the bundle capture.
func (r *Recorder) Reset() {
	r.Violations = r.Violations[:0]
	r.HardCount = 0
	r.StaleCount = 0
	r.BundlePath = ""
	r.BundleErr = nil
}
