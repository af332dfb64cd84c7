package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
)

// Fencing. Every WAL and snapshot header carries the monotonic term of the
// primary that wrote it. Failover bumps the term: a promoted follower opens
// its local chain with Options.Term one above the highest term it ever
// observed, and best-effort writes a TERM fence file into the old primary's
// directory. A revived old primary is then refused twice over — its own
// directory's fence file outranks its chain (Open fails with ErrFenced), and
// any follower still attached to it sees the fence, or a tip term below one
// it has already adopted, and degrades with the same typed error instead of
// consuming post-failover writes (split-brain at the storage level).

// ErrFenced matches (via errors.Is) every fencing refusal: a directory whose
// TERM fence file outranks its chain, an Open whose Options.Term is below the
// chain's recovered term, or a follower whose source regressed to a stale
// term.
var ErrFenced = errors.New("persist: fenced by a higher replication term")

// FencedError is the concrete error behind ErrFenced.
type FencedError struct {
	// Dir is the data directory that was refused.
	Dir string
	// Term is the stale term that was refused; Fence the higher term that
	// outranks it.
	Term, Fence uint64
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("persist: %s is fenced: term %d was superseded by term %d (a follower was promoted); this chain must not accept writes",
		e.Dir, e.Term, e.Fence)
}

func (e *FencedError) Is(target error) bool { return target == ErrFenced }

// fencePath is the TERM fence file: 16 hex digits naming the lowest term
// still allowed to own the directory.
func fencePath(dir string) string { return filepath.Join(dir, "TERM") }

// WriteFence durably records term as the directory's minimum owning term. A
// promoted follower calls it on the OLD primary's directory: any process that
// later opens that directory with a chain term below the fence is refused
// with ErrFenced. Writing the fence is best-effort during failover (the old
// directory may be unreachable — the header terms still fence its chain when
// shipped), but when it succeeds the refusal happens at Open, before a
// revived primary serves a single write.
func WriteFence(fsys FS, dir string, term uint64) error {
	if fsys == nil {
		fsys = OS
	}
	cur, err := readFence(fsys, dir)
	if err != nil {
		return err
	}
	if cur >= term {
		return nil // an equal or higher fence is already in force
	}
	if err := writeFileSync(fsys, fencePath(dir), fmt.Appendf(nil, "%016x\n", term)); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

// readFence returns the directory's fence term, 0 when no fence file exists.
// An unreadable or malformed fence is an error: guessing 0 would let a fenced
// primary revive.
func readFence(fsys FS, dir string) (uint64, error) {
	b, err := fsys.ReadFile(fencePath(dir))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("persist: malformed TERM fence file in %s: %q", dir, s)
	}
	return v, nil
}
