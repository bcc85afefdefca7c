package profiler

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseKinds pins the one profiler-name parser the CLIs and tipd share:
// names match case-insensitively in the order given, and an unknown name's
// error lists every known one.
func TestParseKinds(t *testing.T) {
	got, err := ParseKinds("tip", " NCI+ilp ", "Software")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Kind{KindTIP, KindNCIILP, KindSoftware}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseKinds = %v, want %v", got, want)
	}
	if got, err := ParseKinds(); got != nil || err != nil {
		t.Fatalf("ParseKinds() = %v, %v; want nil, nil", got, err)
	}
	_, err = ParseKinds("TIP", "perf")
	if err == nil || !strings.Contains(err.Error(), `"perf"`) {
		t.Fatalf("unknown name: err = %v", err)
	}
	for _, k := range AllKinds() {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("error %q does not list %s", err, k)
		}
	}
}
