package athena

// Every other digest test in the tree is relative — serial ≡ sharded,
// cold ≡ cached, bare ≡ instrumented within one commit — so a change that
// moved all digests consistently would pass them all. This one is
// absolute: the registry's id → digest map at Options{Seed: 1, Scale:
// 0.02}, as recorded at commit fadc9a7. A PR that means to change an
// artifact updates its literal and says why; any other diff here is a
// behaviour change nobody asked for.

import (
	"context"
	"runtime"
	"testing"
)

var pinnedDigests = map[string]string{
	"F3":  "ecdcac6c13a0e2cb043877bee2d2fd8f787d9a708241f3c0aceea4b68821de47",
	"F4":  "6de99eaa2e5ae32c5a0586dcf6afeb7c960f1aa54e06ed09a6fa19f940a7b3e3",
	"F5":  "15902bbbc57b810f4bc8aff0764c4347aa59fb53effd58eaa3f261a4c7d0844d",
	"F6":  "7a0417ca70eec10b831e2a62065ce79b52a5cc3f3bfa5b7498cd07cd91b7d5a5",
	"F7":  "e04f655cfa1ec95424ec89ea5bf301eee291b5075e835cc5fc269f8d1eb2239e",
	"F8":  "8be2de813f3c584b8ac453abda9a95c38b5f8f2dca1038792883f09ce500a464",
	"F9a": "aa6053b841dbbb9f7c256a7af5769459b047a875f847f451728b7db1a4bf07fa",
	"F9b": "0c5040907c57a6f3128f1745dac806952257bf0dfcdfc2bc8bfb616d76a101f6",
	"F10": "744649d27c779e255aabdce024fa85feb827329e5c93d52a2c4415417a29ba65",
	"M1":  "c20e5b106f00082cc3ee52935b113ac6bb9f77941857a97d11b5a1f3a2871091",
	"M2":  "a96b567cd2ad3df4ba13771402e48157d7f8c247a341e03c9b1f6cc667ef087f",
	"M3":  "0d47bcbda114da372603fa02b8fc9640fd51f8342932d96360a0a843f8466091",
	"M4":  "78b77fad7ab26de1be6215bdd47a625b7ac4348e4683bf86bf8f36e33410ac08",
	"A1":  "f7a5d8495693d312f9fa80b2fcf84e6764403f031573044e2246e0e4df764ac1",
	"A2":  "1e39354eeb3aad6a4a0d413a29fbe6b17426e35d5ae612573d5015a1957a0d50",
	"A3":  "2c118977151b44d9e30632e8c9a8d9c496633125e60878d2118483f0270e9f27",
	"A4":  "dfd489bcb57c8fc61b1f07416c03005e96689fd91eefef44933332bbd24b4aec",
	"S1":  "f71c0a480e20e16341a663f3ceae6abb0b5b585a0d42e9d8f1f931a99a4ca964",
	"S2":  "a25e59d4a750c298b41329c2ee04240ab1ed7f14f244260d41487f2debdfbdb2",
	"S3":  "f47c8f54cf8d5926cae900d9fce6960890eedc88b19ff9b569d1a3a2177bec46",
	"S4":  "b4106c6a3d9e700d44e6f975ce0db5e0e3f4215151bc37a1dac315530c6199ae",
	"S8":  "4349d3ab4bb8f8a36cbf2496e54060a05c3f73e6222b5d595293ddcbe53d06f8",
	"S9":  "47ab771a1fb3ffcd44c815fd5184105a7291cad6ab45bab25ef3d2a230652d9c",
}

func TestRegistryDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("SSIM and decode-noise floats are not FMA-pinned yet (ROADMAP item 6); the literals are amd64's")
	}
	sel, err := SelectExperiments(Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(pinnedDigests) {
		t.Fatalf("registry has %d experiments, %d digests pinned", len(sel), len(pinnedDigests))
	}
	for _, r := range SweepExperiments(context.Background(), sel, SweepConfig{Options: Options{Seed: 1, Scale: 0.02}, Parallel: 2}) {
		id := r.Experiment.ID
		if r.Err != nil {
			t.Fatalf("%s errored: %v", id, r.Err)
		}
		if want, ok := pinnedDigests[id]; !ok {
			t.Errorf("%s has no pinned digest", id)
		} else if r.Digest != want {
			t.Errorf("%s digest moved: %s, pinned %s", id, r.Digest, want)
		}
	}
}
