package sparsefusion

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// scheduleDigests are the SHA-256 digests of the schedule containers — the
// SaveSchedule stream and the disk tier's file — for a fixed fixture set.
// States keep only the compiled program and decompile it for SaveSchedule,
// and the disk tier writes the schedule a miss inspected, so any drift in
// what a container holds — schedule, reuse ratio, fingerprint — shows up
// here.
var scheduleDigests = map[string]string{
	"save/lap2d/DAD-IC0/threads=2":       "e8c81a6029613a60c82eee44589933700d126f59a17d4c16fdebe57dcc369a1a",
	"save/lap2d/DAD-IC0/threads=3":       "32046112f58b891d64785acf847045318fbac4daf7f1b28263071d926fdf584d",
	"save/lap2d/DAD-ILU0/threads=2":      "6287ec58e92b5d46fbf8824f059851864922a7ec7a0f9985aa33651151f48e37",
	"save/lap2d/DAD-ILU0/threads=3":      "43d6405f72ee0160f06f57e4003399199572d48bf300140a2d0acb412ff2d0b3",
	"save/lap2d/IC0-TRSV/threads=2":      "81138a406858c9295384a025c83ab64f528f88cc9b7831e2980335b38551d1c6",
	"save/lap2d/IC0-TRSV/threads=3":      "ec2d7b0d27d1608804595f2b73d28e720de5843572b428b3f5e089ff0ed49e9c",
	"save/lap2d/ILU0-TRSV/threads=2":     "0ed671b68dceaff9ddddc0634bcf1cd54bb18475f77fbcb13ac8d864ea4a6110",
	"save/lap2d/ILU0-TRSV/threads=3":     "e2425667a87cdf38b7ef318a4098154f7e2d45d84c27ddb348430f61961374f9",
	"save/lap2d/MV-MV/threads=2":         "7dd053813c864bf7d0809ac2010b7fb245b9618eb3368c5ac583b1244a3457cc",
	"save/lap2d/MV-MV/threads=3":         "d97fde7df97ea39657cad146fb443a40256e41c942dd9e9bc25c27923e1b82df",
	"save/lap2d/TRSV-MV/threads=2":       "b2f73fd082f01bf1c700abd44746ba5791d9f9e8b86adc4d94d2000e759aa296",
	"save/lap2d/TRSV-MV/threads=3":       "eeda06c58f1f159c73bdf318319f7a7e40108c7bc8ba544da3deda5e114534ac",
	"save/lap2d/TRSV-TRSV/threads=2":     "91140ef68c5abac720cbde4e89ad19d8f33a4deedbe42c0b579e550bad38c439",
	"save/lap2d/TRSV-TRSV/threads=3":     "2f34e25b47e712071fad20fbeb8fbf877ae3ea2b6155bf3163d77bab2bc660f9",
	"save/power-law/DAD-IC0/threads=2":   "e58ba6e698b7cdf73827649ce83f270bc1a834258b6f7708a10ea43fb82ba291",
	"save/power-law/DAD-IC0/threads=3":   "41a20afee1255475912376dbdc0a93a27f2df54f87176400846644e5705160c1",
	"save/power-law/DAD-ILU0/threads=2":  "beec22f135206c61d86da19411fb5ab4ee761e01eff7fa778a95f96dc4c68ee8",
	"save/power-law/DAD-ILU0/threads=3":  "e98a3737f2324bc49d53ee526fc8f3cc119d255e137bd5b95ca4a21f98a8b616",
	"save/power-law/IC0-TRSV/threads=2":  "329c1931d2146892b2109d2363f5c896901b26fe3c01f15ceb9f8825839a2137",
	"save/power-law/IC0-TRSV/threads=3":  "b89843c9d613ded4ffb1990e682efc8e59c2f5298687b197656e03e0b9b35074",
	"save/power-law/ILU0-TRSV/threads=2": "063b61804bb28432cf23539f82e43c1d257ed30030146d6d1efded545054a4ae",
	"save/power-law/ILU0-TRSV/threads=3": "e1d351a5ed42ea4004e0f626d70055f20e5f06eaedbfebea199fc90ff9397032",
	"save/power-law/MV-MV/threads=2":     "d871eb7d7a0a7d7aef680dbfa8dff6b5c8135cbc699c1c70a987a97f364a110a",
	"save/power-law/MV-MV/threads=3":     "38cdd5bece72a1c499bca37153737777addf4c235a437b9854a624e0813e76e5",
	"save/power-law/TRSV-MV/threads=2":   "462b10793989c8e958febe5132ba6a62027b1ac9834ff75707be9c777c97c094",
	"save/power-law/TRSV-MV/threads=3":   "4982ea8ed231ebf633022b3e6ef83d6bd5f13b1646bf89c5cfc80682d2835eb7",
	"save/power-law/TRSV-TRSV/threads=2": "5fae28df7178664224621b698df811310a2b848a4a8bbccb158b0c4a77117714",
	"save/power-law/TRSV-TRSV/threads=3": "1710d76e89c9560526d564967d24497e45b198a7e16d4088e373647a91584ad9",
	"tier/lap2d/MV-MV":                   "7dd053813c864bf7d0809ac2010b7fb245b9618eb3368c5ac583b1244a3457cc",
	"tier/lap2d/TRSV-MV":                 "b2f73fd082f01bf1c700abd44746ba5791d9f9e8b86adc4d94d2000e759aa296",
	"tier/lap2d/TRSV-TRSV":               "91140ef68c5abac720cbde4e89ad19d8f33a4deedbe42c0b579e550bad38c439",
	"tier/pcg/lap3d":                     "06c7ecbd7b93436daa8b112a58e4f67e7879f26ce0923f82a249c96cd7af24d0",
}

// scheduleContainers computes the container digests of the fixture set.
func scheduleContainers(t *testing.T) map[string]string {
	t.Helper()
	digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	got := map[string]string{}
	mats := map[string]*Matrix{"lap2d": Laplacian2D(24), "power-law": PowerLawSPD(600, 3, 5)}
	for mname, m := range mats {
		for c := TrsvTrsv; c <= MvMv; c++ {
			for _, th := range []int{2, 3} {
				op, err := NewOperation(c, m, Options{Threads: th})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := op.SaveSchedule(&buf); err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("save/%s/%v/threads=%d", mname, c, th)] = digest(buf.Bytes())
			}
		}
	}
	tierFile := func(name string, build func(sc *ScheduleCache) error) {
		dir := t.TempDir()
		if err := build(NewScheduleCache(CacheConfig{Dir: dir})); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.sched"))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: disk tier holds %v (%v), want one file", name, files, err)
		}
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		got["tier/"+name] = digest(b)
	}
	for _, c := range []Combination{TrsvTrsv, TrsvMv, MvMv} {
		tierFile(fmt.Sprintf("lap2d/%v", c), func(sc *ScheduleCache) error {
			_, err := NewOperation(c, mats["lap2d"], Options{Threads: 2, Cache: sc})
			return err
		})
	}
	tierFile("pcg/lap3d", func(sc *ScheduleCache) error {
		_, err := NewFusedCG(Laplacian3D(8), FusedCGOptions{Options: Options{Threads: 2, Cache: sc}, Precondition: true})
		return err
	})
	return got
}

// TestScheduleContainerDigests: SaveSchedule and disk-tier container bytes
// are unchanged from the recorded digests.
func TestScheduleContainerDigests(t *testing.T) {
	got := scheduleContainers(t)
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
	}
	if len(got) != len(scheduleDigests) {
		t.Fatalf("%d containers, %d recorded digests; computed:\n%s", len(got), len(scheduleDigests), table.String())
	}
	for _, name := range names {
		if scheduleDigests[name] != got[name] {
			t.Errorf("%s: container digest %s, recorded %s", name, got[name], scheduleDigests[name])
		}
	}
}
