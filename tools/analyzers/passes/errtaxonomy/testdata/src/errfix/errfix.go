// Package errfix exercises the errtaxonomy rule's flagged forms.
package errfix

import (
	"errors"
	"fmt"
	"os"
)

var errSentinel = errors.New("sentinel")

func compare(err error) bool {
	return err == errSentinel // want "error values compared with == miss wrapped sentinels"
}

func compareNeq(err error) bool {
	return err != errSentinel // want "error values compared with != miss wrapped sentinels"
}

func switchOver(err error) string {
	switch err {
	case errSentinel: // want "switch over an error value compares with =="
		return "sentinel"
	case nil:
		return "ok"
	}
	return "other"
}

func wrapV(err error) error {
	return fmt.Errorf("context: %v", err) // want "error argument formatted with %v drops it from the errors.Is/As chain"
}

func wrapS(err error) error {
	return fmt.Errorf("context: %s", err) // want "error argument formatted with %s drops it from the errors.Is/As chain"
}

func wrapSecond(err error) error {
	return fmt.Errorf("%w at step %d: %v", errSentinel, 3, err) // want "error argument formatted with %v drops it"
}

func osPredicates(err error) (bool, bool, bool) {
	return os.IsNotExist(err), // want "os.IsNotExist does not unwrap %w chains; use errors.Is\\(err, fs.ErrNotExist\\)"
		os.IsExist(err), // want "os.IsExist does not unwrap %w chains; use errors.Is\\(err, fs.ErrExist\\)"
		os.IsPermission(err) // want "os.IsPermission does not unwrap %w chains; use errors.Is\\(err, fs.ErrPermission\\)"
}
