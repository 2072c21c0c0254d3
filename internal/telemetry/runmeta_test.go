package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

// fakeRepo writes the given files (path relative to .git → content) into a
// fresh .git under a temp dir and returns a nested working directory inside
// that checkout, so gitHead has to walk up to find the repository.
func fakeRepo(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		p := filepath.Join(root, ".git", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd := filepath.Join(root, "sub", "dir")
	if err := os.MkdirAll(wd, 0o755); err != nil {
		t.Fatal(err)
	}
	return wd
}

func TestGitHead(t *testing.T) {
	const c1 = "0123456789abcdef0123456789abcdef01234567"
	const c2 = "89abcdef0123456789abcdef0123456789abcdef"
	packed := "# pack-refs with: peeled fully-peeled sorted\n" +
		c2 + " refs/heads/other\n" +
		c1 + " refs/heads/main\n" +
		"^" + c2 + "\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"detached", map[string]string{"HEAD": c1 + "\n"}, c1},
		{"symbolic-loose", map[string]string{"HEAD": "ref: refs/heads/main\n", "refs/heads/main": c1 + "\n", "packed-refs": c2 + " refs/heads/main\n"}, c1},
		{"symbolic-packed", map[string]string{"HEAD": "ref: refs/heads/main\n", "packed-refs": packed}, c1},
		{"unborn-branch", map[string]string{"HEAD": "ref: refs/heads/main\n"}, ""},
		{"ref-not-packed", map[string]string{"HEAD": "ref: refs/heads/gone\n", "packed-refs": packed}, ""},
		{"garbage-head", map[string]string{"HEAD": "not a commit\n"}, ""},
	} {
		if got := gitHead(fakeRepo(t, tc.files)); got != tc.want {
			t.Errorf("%s: gitHead = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCollectRunMetaReadsCheckout: a test binary carries no VCS stamp, so
// the commit must come from the .git enclosing the working directory.
func TestCollectRunMetaReadsCheckout(t *testing.T) {
	const c = "fedcba9876543210fedcba9876543210fedcba98"
	wd := fakeRepo(t, map[string]string{"HEAD": "ref: refs/heads/main\n", "refs/heads/main": c + "\n"})
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(wd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	if got := CollectRunMeta().GitCommit; got != c {
		t.Fatalf("GitCommit = %q, want %q from the enclosing .git", got, c)
	}
}
