package enum

import (
	"testing"
)

type color int

var colors = New("color", "paint", []string{"red", "green"}, map[string]color{"verde": 1})

func TestCodec(t *testing.T) {
	for s, want := range map[string]color{"": 0, "red": 0, " Green\t": 1, "VERDE": 1} {
		if got, err := colors.Parse(s); err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := colors.Parse("Blue"); err == nil || err.Error() != `enum: unknown color "Blue" (want red|green)` {
		t.Errorf("Parse(Blue): %v", err)
	}
	if got := colors.String(1); got != "green" {
		t.Errorf("String(1) = %q", got)
	}
	if got := colors.String(2); got != "color(2)" {
		t.Errorf("String(2) = %q", got)
	}
	if err := colors.Validate(-1); err == nil || err.Error() != "enum: cannot marshal invalid paint -1" {
		t.Errorf("Validate(-1): %v", err)
	}
	a, _ := colors.Marshal(0)
	a[0] = 'X'
	if b, _ := colors.Marshal(0); string(b) != "red" {
		t.Errorf("Marshal shares its bytes: got %q after a caller wrote into an earlier result", b)
	}
	v := color(1)
	if err := colors.Unmarshal(&v, []byte("blue")); err == nil || v != 1 {
		t.Errorf("Unmarshal(blue) = %v, %v; want an error and the value untouched", v, err)
	}
}

func TestValidateAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = colors.Validate(1) }); n != 0 {
		t.Errorf("Validate of a named value allocates %v times", n)
	}
}

func TestNewRejectsMalformedTables(t *testing.T) {
	for name, aliases := range map[string]map[string]color{
		"alias repeats a name": {"green": 1},
		"alias not lower case": {"Verde": 1},
		"alias padded":         {" verde": 1},
		"alias empty":          {"": 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New("color", "color", []string{"red", "green"}, aliases)
		}()
	}
}
