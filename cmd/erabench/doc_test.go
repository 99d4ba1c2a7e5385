package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite doc.go from the experiment registry")

// TestPackageDoc pins the package comment to the registry-generated
// usage text.
func TestPackageDoc(t *testing.T) {
	var b strings.Builder
	b.WriteString("// Code generated by go generate; DO NOT EDIT.\n\n")
	for _, line := range strings.Split(strings.TrimSuffix(usage(), "\n"), "\n") {
		switch {
		case line == "":
			b.WriteString("//\n")
		case strings.HasPrefix(line, "\t"):
			b.WriteString("//" + line + "\n")
		default:
			b.WriteString("// " + line + "\n")
		}
	}
	b.WriteString("package main\n")
	if *update {
		if err := os.WriteFile("doc.go", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != b.String() {
		t.Errorf("doc.go is stale; run go generate ./cmd/erabench")
	}
}
