package invariant

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A nil checker is the disabled state: every exported method, called on a
// nil receiver with zero-valued arguments, returns zero-valued results
// without panicking, and the hot-path calls allocate nothing. A method
// added without a nil guard fails here.
func TestNilCheckerIsFree(t *testing.T) {
	nilChecker := reflect.ValueOf((*Checker)(nil))
	typ := nilChecker.Type()
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		args := make([]reflect.Value, m.Type.NumIn()-1)
		for j := range args {
			args[j] = reflect.Zero(m.Type.In(j + 1))
		}
		call := nilChecker.Method(i).Call
		if m.Type.IsVariadic() {
			call = nilChecker.Method(i).CallSlice
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Checker)(nil).%s panicked: %v", m.Name, r)
				}
			}()
			for k, out := range call(args) {
				if !out.IsZero() {
					t.Errorf("(*Checker)(nil).%s result %d = %v, want zero", m.Name, k, out)
				}
			}
		}()
	}
	var c *Checker
	allocs := testing.AllocsPerRun(100, func() {
		if c.Enabled() {
			t.Fatal("nil checker enabled")
		}
		c.Failf(QuicPacketConservation, "would fire %d", 7)
	})
	if allocs != 0 {
		t.Fatalf("nil checker allocates %v per run, want 0", allocs)
	}
}

func TestArmedCheckPanicsWithViolation(t *testing.T) {
	c := New()
	if !c.Enabled() {
		t.Fatal("New() checker not enabled")
	}
	defer func() {
		v, ok := AsViolation(recover())
		if !ok {
			t.Fatal("violation did not surface as *Violation")
		}
		if v.Rule != PlayerBufferNonnegative {
			t.Fatalf("wrong rule: %+v", v)
		}
		if !strings.Contains(v.Error(), "player.buffer-nonnegative") {
			t.Fatalf("Error() missing rule: %q", v.Error())
		}
	}()
	c.Failf(PlayerBufferNonnegative, "buffer -3ms")
	t.Fatal("Failf did not panic")
}

func TestFailfFormats(t *testing.T) {
	defer func() {
		v, ok := AsViolation(recover())
		if !ok {
			t.Fatal("no violation")
		}
		if v.Detail != "sent 10 != acked 9" {
			t.Fatalf("detail = %q", v.Detail)
		}
	}()
	New().Failf(QuicPacketConservation, "sent %d != acked %d", 10, 9)
}

func TestAsViolationRejectsOtherPanics(t *testing.T) {
	if _, ok := AsViolation("plain panic"); ok {
		t.Fatal("string misidentified as violation")
	}
	if _, ok := AsViolation(nil); ok {
		t.Fatal("nil misidentified as violation")
	}
}

// witnessName is the test that must fire r: "TestWitness" and the rule's
// name in CamelCase, which is also its constant's name
// ("quic.wire-roundtrip" → TestWitnessQuicWireRoundtrip).
func witnessName(r Rule) string {
	var b strings.Builder
	b.WriteString("TestWitness")
	for _, part := range strings.FieldsFunc(r.String(), func(c rune) bool { return c == '.' || c == '-' }) {
		b.WriteString(strings.ToUpper(part[:1]) + part[1:])
	}
	return b.String()
}

// TestEveryRuleHasAWitness: every rule of the table has a TestWitness test
// somewhere in the module (it breaks the rule's property and asserts that
// rule's violation), and every TestWitness test names a rule, so a rule
// cannot be added, or its witness deleted or renamed, without the other.
func TestEveryRuleHasAWitness(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	file := map[string]string{} // witness → the file it is in
	var witnesses []string      // the same, in walk order
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "TestWitness") {
				file[fn.Name.Name] = path
				witnesses = append(witnesses, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := Rule(0); r < numRules; r++ {
		w := witnessName(r)
		if file[w] == "" {
			t.Errorf("rule %s has no witness: want a test named %s", r, w)
		}
		delete(file, w)
	}
	for _, w := range witnesses {
		if path, ok := file[w]; ok {
			t.Errorf("%s (%s) is a witness of no rule", w, path)
		}
	}
}
