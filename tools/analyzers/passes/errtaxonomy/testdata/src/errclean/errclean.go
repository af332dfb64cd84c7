// Package errclean holds only the sanctioned error idioms: nothing here
// may be flagged.
package errclean

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

var errSentinel = errors.New("sentinel")

type fence struct{ term uint64 }

func (f *fence) Error() string { return "fenced" }

// Is compares identity: the one place == on errors is the correct idiom.
func (f *fence) Is(target error) bool {
	return target == errSentinel
}

func compare(err error) bool {
	return errors.Is(err, errSentinel)
}

func nilChecks(err error) bool {
	return err == nil || err != nil
}

func wrapW(err error) error {
	return fmt.Errorf("context: %w", err)
}

func wrapBoth(err error) error {
	return fmt.Errorf("%w: cause: %w", errSentinel, err)
}

func sealed(err error) error {
	// Stringifying via err.Error() is the explicit opt-out for a boundary
	// that intentionally seals its cause.
	return fmt.Errorf("sealed: %s", err.Error())
}

// osSentinels tests filesystem conditions through the io/fs sentinels,
// which errors.Is finds through any wrapping; os.IsTimeout is not one of
// the flagged predicates.
func osSentinels(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrExist) ||
		errors.Is(err, fs.ErrPermission) || os.IsTimeout(err)
}
