// Job submission payloads, their validation, and the lifecycle of one
// discovery job. A job is the unit the server schedules: a database (DDL
// plus extension) and a program set, reverse-engineered asynchronously by
// the existing pipeline under a per-job context, with the expert dialogue
// optionally escalated over the API.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"dbre/internal/core"
	"dbre/internal/obs"
	"dbre/internal/table"
)

// JobState is the lifecycle state of a job. Transitions are monotone:
// queued → running → one of the terminal states; a cancellation request
// on a queued job skips straight to cancelled.
type JobState string

// The job states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Expert kinds accepted in JobSpec.Expert.
const (
	ExpertAuto = "auto"
	ExpertAPI  = "api"
	ExpertDeny = "deny"
)

// JobSpec is the JSON submission payload of POST /jobs. Exactly the
// inputs of a one-shot cmd/dbre run, minus the terminal: the extension
// arrives inline (CSV map or INSERTs in the schema script) or as a named
// server-side dataset, and the interactive expert becomes the "api"
// oracle whose questions are answered over HTTP.
type JobSpec struct {
	// SchemaSQL is the DDL script (CREATE TABLE statements; INSERTs
	// allowed). Required unless Dataset names a snapshot-backed dataset,
	// which carries its own catalog (and then SchemaSQL must be empty).
	SchemaSQL string `json:"schema_sql"`
	// Dataset names a directory under the server's dataset root: either
	// <relation>.csv files loaded against SchemaSQL, or a binary snapshot
	// (written by dbre -snapshot) the job boots from warm. The name is a
	// single path element — path separators and dot-prefixed names are
	// rejected at decode time.
	Dataset string `json:"dataset,omitempty"`
	// CSV supplies the extension inline: relation name → CSV text.
	// Mutually exclusive with Dataset.
	CSV map[string]string `json:"csv,omitempty"`
	// Programs are the application programs to scan: name → source.
	Programs map[string]string `json:"programs,omitempty"`
	// Expert selects the oracle: "auto" (default), "deny", or "api"
	// (questions escalate to the pending-question queue).
	Expert string `json:"expert,omitempty"`
	// Ask restricts which question kinds the api expert escalates
	// (KindNEI, ...); the rest fall back to the automatic policy. Empty
	// escalates everything.
	Ask []string `json:"ask,omitempty"`
	// AutoAnswerAfterMS is the api expert's fallback: a question pending
	// longer than this resolves with its default answer. 0 uses the
	// server's configured default; questions otherwise wait until
	// answered or the job is cancelled.
	AutoAnswerAfterMS int64 `json:"auto_answer_after_ms,omitempty"`
	// InclusionSlack / MaxViolationRate tune the automatic policy (see
	// expert.Auto); nil keeps the defaults.
	InclusionSlack   *float64 `json:"inclusion_slack,omitempty"`
	MaxViolationRate *float64 `json:"max_violation_rate,omitempty"`
	// InferKeys / NoClosure / Parallelism mirror the cmd/dbre flags.
	// An omitted parallelism defaults to every core the server has
	// (capped by the server's parallelism limit); an explicit 0 still
	// selects the serial path.
	InferKeys   bool `json:"infer_keys,omitempty"`
	NoClosure   bool `json:"no_closure,omitempty"`
	Parallelism int  `json:"parallelism,omitempty"`
	// MaxBytes lowers the per-job memory ceiling below the server's
	// (checked after ingest against the loaded extension's footprint);
	// it can never raise it. 0 keeps the server ceiling.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// Incremental keeps the job's database and discovery state alive
	// after the run: POST /jobs/{id}/append then batch-appends rows and
	// re-validates the discovered dependencies against the delta only.
	// Incremental jobs run discovery-only (no restructuring, no EER) so
	// the retained state stays re-validatable.
	Incremental bool `json:"incremental,omitempty"`
}

// Limits bound what a single submission may ask for; the server derives
// them from its Config.
type Limits struct {
	// MaxBody caps the encoded submission size in bytes.
	MaxBody int64
	// MaxJobBytes is the server-wide per-job memory ceiling.
	MaxJobBytes int64
	// MaxParallelism caps JobSpec.Parallelism.
	MaxParallelism int
}

// maxNameLen bounds dataset / relation / program names.
const maxNameLen = 128

// DecodeJobSpec parses and validates a job submission. The decoder is
// strict — unknown fields, trailing garbage, out-of-range limits and
// path-traversal attempts in dataset or relation names are all rejected
// — because it is the server's trust boundary: everything downstream
// (file paths, worker budgets, memory ceilings) believes the spec.
func DecodeJobSpec(data []byte, lim Limits) (*JobSpec, error) {
	if lim.MaxBody > 0 && int64(len(data)) > lim.MaxBody {
		return nil, fmt.Errorf("submission is %d bytes, limit %d", len(data), lim.MaxBody)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	// The shadow parallelism field outranks the embedded one and tells
	// an omitted field (default: every core the server has) from an
	// explicit 0 (the serial path) in the same single decode.
	spec := &JobSpec{}
	wire := struct {
		*JobSpec
		Parallelism presentInt `json:"parallelism"`
	}{JobSpec: spec, Parallelism: presentInt{n: &spec.Parallelism}}
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("malformed job spec: %w", err)
	}
	if dec.More() {
		return nil, errors.New("malformed job spec: trailing data after JSON object")
	}
	if !wire.Parallelism.present {
		spec.Parallelism = defaultParallelism(lim)
	}
	if err := spec.validate(lim); err != nil {
		return nil, err
	}
	return spec, nil
}

// presentInt decodes a JSON number into *n and records that its field
// was present. A null counts as present and, like a plain int field,
// leaves *n unchanged.
type presentInt struct {
	n       *int
	present bool
}

func (p *presentInt) UnmarshalJSON(data []byte) error {
	p.present = true
	if string(data) == "null" {
		return nil
	}
	return json.Unmarshal(data, p.n)
}

// defaultParallelism is the fan-out applied when a submission omits the
// parallelism field: all cores, capped by the server's configured
// limit so the default can never exceed what an explicit value could
// ask for.
func defaultParallelism(lim Limits) int {
	p := runtime.GOMAXPROCS(0)
	maxPar := lim.MaxParallelism
	if maxPar <= 0 {
		maxPar = 256
	}
	if p > maxPar {
		p = maxPar
	}
	return p
}

func (s *JobSpec) validate(lim Limits) error {
	if strings.TrimSpace(s.SchemaSQL) == "" && s.Dataset == "" {
		return errors.New("schema_sql is required (unless a named dataset supplies the schema)")
	}
	if s.Dataset != "" && len(s.CSV) > 0 {
		return errors.New("dataset and csv are mutually exclusive")
	}
	if s.Dataset != "" {
		if err := validateName("dataset", s.Dataset); err != nil {
			return err
		}
	}
	for rel := range s.CSV {
		if err := validateName("csv relation", rel); err != nil {
			return err
		}
	}
	for name := range s.Programs {
		if name == "" || len(name) > maxNameLen {
			return fmt.Errorf("program name %q: must be 1..%d characters", name, maxNameLen)
		}
	}
	switch s.Expert {
	case "", ExpertAuto, ExpertAPI, ExpertDeny:
	default:
		return fmt.Errorf("unknown expert %q", s.Expert)
	}
	for _, k := range s.Ask {
		if !validQuestionKind(k) {
			return fmt.Errorf("unknown question kind %q in ask", k)
		}
	}
	if len(s.Ask) > 0 && s.Expert != ExpertAPI {
		return errors.New("ask requires the api expert")
	}
	if s.AutoAnswerAfterMS < 0 || s.AutoAnswerAfterMS > int64(24*time.Hour/time.Millisecond) {
		return fmt.Errorf("auto_answer_after_ms %d out of range [0, 24h]", s.AutoAnswerAfterMS)
	}
	if err := validateRate("inclusion_slack", s.InclusionSlack); err != nil {
		return err
	}
	if err := validateRate("max_violation_rate", s.MaxViolationRate); err != nil {
		return err
	}
	maxPar := lim.MaxParallelism
	if maxPar <= 0 {
		maxPar = 256
	}
	if s.Parallelism < 0 || s.Parallelism > maxPar {
		return fmt.Errorf("parallelism %d out of range [0, %d]", s.Parallelism, maxPar)
	}
	if s.MaxBytes < 0 {
		return fmt.Errorf("max_bytes %d is negative", s.MaxBytes)
	}
	if lim.MaxJobBytes > 0 && s.MaxBytes > lim.MaxJobBytes {
		return fmt.Errorf("max_bytes %d exceeds the server ceiling %d", s.MaxBytes, lim.MaxJobBytes)
	}
	return nil
}

// validateRate checks an optional fraction field.
func validateRate(field string, v *float64) error {
	if v == nil {
		return nil
	}
	if *v != *v || *v < 0 || *v > 1 { // NaN or out of [0,1]
		return fmt.Errorf("%s %v out of range [0, 1]", field, *v)
	}
	return nil
}

// validateName admits exactly one safe path element: ASCII letters,
// digits, '-', '_' and interior dots. Separators, "..", dot-prefixed
// names and control bytes never pass, so a validated name can be joined
// under the dataset root or a scratch directory without escaping it.
func validateName(what, name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%s name %q: must be 1..%d characters", what, name, maxNameLen)
	}
	if name[0] == '.' {
		return fmt.Errorf("%s name %q: must not start with '.'", what, name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return fmt.Errorf("%s name %q: invalid character %q", what, name, c)
		}
	}
	return nil
}

// approxSize is the submission's inline payload volume, the first line
// of memory-ceiling defense (the post-ingest ApproxBytes check is the
// second).
func (s *JobSpec) approxSize() int64 {
	n := int64(len(s.SchemaSQL))
	for rel, body := range s.CSV {
		n += int64(len(rel) + len(body))
	}
	for name, src := range s.Programs {
		n += int64(len(name) + len(src))
	}
	return n
}

// jobID derives the deterministic identifier of the seq-th accepted
// submission: a monotone sequence number (uniqueness, sortable listing)
// plus a content digest (resubmitting the same payload is visibly the
// same work).
func jobID(seq int, body []byte) string {
	sum := sha256.Sum256(body)
	return fmt.Sprintf("j%04d-%x", seq, sum[:4])
}

// job is one scheduled discovery run.
type job struct {
	id        string
	spec      *JobSpec
	questions *questionQueue
	// ctx is the job's run context (a child of the server context);
	// cancel aborts it — from DELETE, or from server shutdown.
	ctx    context.Context
	cancel func()
	// done closes on the transition to a terminal state.
	done chan struct{}

	// runMu serializes the mutation path of an incremental job: one
	// append-and-revalidate at a time, never concurrent with another.
	// Held without j.mu; the two never nest the other way around.
	runMu sync.Mutex

	mu         sync.Mutex
	state      JobState
	err        string
	violations int
	// tracer observes the run and, once it is done, the latest append;
	// traceJSON is its JSON rendering, made on the first GET of the
	// trace and dropped when an append replaces the tracer.
	tracer     *obs.Tracer
	reportText string
	traceJSON  []byte
	eerDOT     string
	doneAt     time.Time
	// db and inc are the retained live database and warm discovery state
	// of an incremental job (nil otherwise); epoch is db's epoch at the
	// last quiescent point (initial run or completed append).
	db    *table.Database
	inc   *core.Incremental
	epoch uint64
	// pool is the resident pool entry an incremental job runs against
	// (nil for one-shot and unpooled jobs); poolRelease drops the job's
	// pin on it. One-shot jobs release inside execute; incremental jobs
	// keep the entry pinned — the resident database is their live state
	// — until the sweeper evicts the job.
	pool        *poolEntry
	poolRelease func()
}

func newJob(id string, spec *JobSpec, cancel func()) *job {
	return &job{
		id:        id,
		spec:      spec,
		questions: newQuestionQueue(),
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
	}
}

// getState returns the current state.
func (j *job) getState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start moves queued → running; false when the job is already terminal
// (cancelled while waiting in the queue).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// finish records the terminal state once; later calls are no-ops (e.g. a
// DELETE racing the worker's own completion). It reports whether this
// call performed the transition.
func (j *job) finish(state JobState, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.err = errMsg
	j.doneAt = now
	close(j.done)
	return true
}

// trace returns the JSON trace of the job's finished tracer, rendering
// it on the first call. Most traces are never fetched, so no job pays
// for the rendering before it reports done.
func (j *job) trace() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.traceJSON == nil {
		var buf bytes.Buffer
		if err := j.tracer.WriteJSON(&buf); err != nil {
			return nil, err
		}
		j.traceJSON = buf.Bytes()
	}
	return j.traceJSON, nil
}

// JobStatus is the JSON status view of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Violations counts constraint violations tolerated while loading
	// the extension.
	Violations int `json:"violations,omitempty"`
	// PendingQuestions is the number of expert questions waiting for an
	// answer over the API.
	PendingQuestions int `json:"pending_questions,omitempty"`
	// Progress is the live pipeline progress derived from the job's
	// trace (present once the job has started).
	Progress *obs.Progress `json:"progress,omitempty"`
	// Incremental marks a job that accepts POST /jobs/{id}/append; Epoch
	// is its database's epoch at the last quiescent point, advancing with
	// every committed append (0 until the initial run finishes).
	Incremental bool   `json:"incremental,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
}

// status snapshots the job.
func (j *job) status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Error:       j.err,
		Violations:  j.violations,
		Progress:    j.tracer.Progress(),
		Incremental: j.spec.Incremental,
		Epoch:       j.epoch,
	}
	j.mu.Unlock()
	st.PendingQuestions = j.questions.pendingCount()
	return st
}
