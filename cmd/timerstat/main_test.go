package main

import (
	"strings"
	"testing"
)

// TestCheckServeFlags: -serve takes every analysis flag some endpoint
// serves and refuses -scatter and -series, naming each one given.
func TestCheckServeFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scatter bool
		series  string
		want    []string // flags the error must name; none means no error
	}{
		{"plain", false, "", nil},
		{"scatter", true, "", []string{"-scatter"}},
		{"series", false, "Xorg", []string{"-series"}},
		{"both", true, "Xorg", []string{"-scatter", "-series"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkServeFlags(tc.scatter, tc.series)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("checkServeFlags = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("checkServeFlags = nil, want an error naming %v", tc.want)
			}
			for _, f := range tc.want {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("error %q does not name %s", err, f)
				}
			}
		})
	}
}
