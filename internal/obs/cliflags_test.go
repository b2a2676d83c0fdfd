package obs

import (
	"flag"
	"reflect"
	"testing"
)

// TestCLIFlagsContract pins the flag set every CLI shares: a knob added
// to or lost from AddCLIFlags changes every command's interface at once.
func TestCLIFlagsContract(t *testing.T) {
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	AddCLIFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"metrics-out": "", "timeline": "", "debug-addr": "",
		"cpuprofile": "", "memprofile": "", "blockprofile": "", "mutexprofile": "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AddCLIFlags registered %v, want %v", got, want)
	}
}
