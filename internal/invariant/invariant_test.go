package invariant

import (
	"reflect"
	"strings"
	"testing"
)

// A nil checker is the disabled state: every exported method, called on a
// nil receiver with zero-valued arguments (so Check sees ok == false),
// returns zero-valued results without panicking, and the hot-path calls
// allocate nothing. A method added without a nil guard fails here.
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
		c.Check(false, "quic", "quic.test", "would fire")
		c.Failf("quic", "quic.test", "would fire %d", 7)
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
	c.Check(true, "sim", "sim.ok", "fine") // passing check must not fire
	defer func() {
		v, ok := AsViolation(recover())
		if !ok {
			t.Fatal("violation did not surface as *Violation")
		}
		if v.Layer != "player" || v.Rule != "player.buffer-nonnegative" {
			t.Fatalf("wrong identity: %+v", v)
		}
		if !strings.Contains(v.Error(), "player.buffer-nonnegative") {
			t.Fatalf("Error() missing rule: %q", v.Error())
		}
	}()
	c.Check(false, "player", "player.buffer-nonnegative", "buffer -3ms")
	t.Fatal("failed check did not panic")
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
	New().Failf("quic", "quic.packet-conservation", "sent %d != acked %d", 10, 9)
}

func TestAsViolationRejectsOtherPanics(t *testing.T) {
	if _, ok := AsViolation("plain panic"); ok {
		t.Fatal("string misidentified as violation")
	}
	if _, ok := AsViolation(nil); ok {
		t.Fatal("nil misidentified as violation")
	}
}
