package mc

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
)

// ResumeToken pins one fragment of the depth-first exploration
// frontier of a budget-expired Check, so a later Check can continue
// where it stopped instead of re-exploring from scratch. An interrupted
// check returns one token per remaining fragment, and a resumed check
// takes them all. Tokens are deterministic: an interrupted-and-resumed
// one-worker exploration visits executions in exactly the order the
// uninterrupted run would have.
//
// Tokens passed within the same process also carry the visited-state
// cache and the running statistics (on the first token), so resumed
// counters continue seamlessly. A token that crossed a process boundary (Encode/Decode)
// carries only the frontier; the visited cache is rebuilt as
// exploration proceeds, which can re-explore some states but never
// changes the verdict.
type ResumeToken struct {
	trace []choice
	// floor is the fragment's immutable prefix length: a token pins only
	// the exploration fragment one worker owned (see dfs.floor); a
	// whole-tree token has floor 0.
	floor      int
	visited    map[uint64]bool
	executions int
	pruned     int
	truncated  int
	// violations and counterexamples found before the budget expired;
	// a resumed Check starts from them so nothing found so far is lost.
	// They stay in-process only: Encode serializes the frontier and the
	// counters, not the findings.
	violations      []string
	counterexamples []Counterexample
}

// Executions reports how many executions the interrupted exploration
// had completed.
func (t *ResumeToken) Executions() int { return t.executions }

// Frontier reports how many unexplored branches the token pins (within
// the fragment's floor and per-choice ceilings).
func (t *ResumeToken) Frontier() int {
	n := 0
	for i := t.floor; i < len(t.trace); i++ {
		n += t.trace[i].bound() - 1 - t.trace[i].taken
	}
	return n
}

// resumeMagic versions the encoded token format. "mcr2" carries the
// fragment floor and per-choice backtrack ceilings of the frontier
// split; the older "mcr1" format had neither and is rejected.
const resumeMagic = "mcr2"

// Encode serializes the token's frontier for transport across
// processes (the atomig-mc -resume flag).
func (t *ResumeToken) Encode() string {
	buf := []byte(resumeMagic)
	buf = binary.AppendUvarint(buf, uint64(t.executions))
	buf = binary.AppendUvarint(buf, uint64(t.pruned))
	buf = binary.AppendUvarint(buf, uint64(t.truncated))
	buf = binary.AppendUvarint(buf, uint64(t.floor))
	buf = binary.AppendUvarint(buf, uint64(len(t.trace)))
	for _, c := range t.trace {
		buf = binary.AppendUvarint(buf, uint64(c.options))
		buf = binary.AppendUvarint(buf, uint64(c.taken))
		buf = binary.AppendUvarint(buf, uint64(c.ceil))
	}
	return base64.RawURLEncoding.EncodeToString(buf)
}

// DecodeResume parses a token produced by Encode.
func DecodeResume(s string) (*ResumeToken, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("mc: bad resume token: %w", err)
	}
	if len(raw) < len(resumeMagic) || string(raw[:len(resumeMagic)]) != resumeMagic {
		return nil, fmt.Errorf("mc: bad resume token: missing %q header", resumeMagic)
	}
	raw = raw[len(resumeMagic):]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return 0, fmt.Errorf("mc: bad resume token: truncated")
		}
		raw = raw[n:]
		return v, nil
	}
	t := &ResumeToken{}
	for _, f := range []*int{&t.executions, &t.pruned, &t.truncated, &t.floor} {
		v, err := next()
		if err != nil {
			return nil, err
		}
		*f = int(v)
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	const maxTraceLen = 1 << 24 // reject absurd tokens before allocating
	if n > maxTraceLen {
		return nil, fmt.Errorf("mc: bad resume token: trace length %d too large", n)
	}
	if t.floor > int(n) {
		return nil, fmt.Errorf("mc: bad resume token: floor %d beyond trace length %d", t.floor, n)
	}
	t.trace = make([]choice, n)
	for i := range t.trace {
		options, err := next()
		if err != nil {
			return nil, err
		}
		taken, err := next()
		if err != nil {
			return nil, err
		}
		ceil, err := next()
		if err != nil {
			return nil, err
		}
		if options == 0 || taken >= options {
			return nil, fmt.Errorf("mc: bad resume token: choice %d/%d out of range", taken, options)
		}
		if ceil != 0 && (ceil > options || taken >= ceil) {
			return nil, fmt.Errorf("mc: bad resume token: ceiling %d invalid for choice %d/%d", ceil, taken, options)
		}
		t.trace[i] = choice{options: int(options), taken: int(taken), ceil: int(ceil)}
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("mc: bad resume token: %d trailing bytes", len(raw))
	}
	return t, nil
}
