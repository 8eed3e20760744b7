package txn

import (
	"testing"

	"repro/internal/isb"
)

func TestDeriveLeg2Arg(t *testing.T) {
	// Without the flag, the announced argument passes through untouched —
	// whatever leg 1 answered.
	for _, resp1 := range []uint64{isb.RespTrue, isb.RespEmpty, isb.EncodeValue(9)} {
		arg, skip := DeriveLeg2Arg(77, 0, resp1)
		if arg != 77 || skip {
			t.Fatalf("DeriveLeg2Arg(77, 0, %d) = (%d, %v), want (77, false)", resp1, arg, skip)
		}
	}
	// With the flag, a value-carrying leg-1 response becomes the argument.
	arg, skip := DeriveLeg2Arg(77, FlagArgFromLeg1, isb.EncodeValue(42))
	if arg != 42 || skip {
		t.Fatalf("derived arg = (%d, %v), want (42, false)", arg, skip)
	}
	// A carried value of 0 must derive to 0, not read as "no value".
	arg, skip = DeriveLeg2Arg(77, FlagArgFromLeg1, isb.EncodeValue(0))
	if arg != 0 || skip {
		t.Fatalf("derived zero value = (%d, %v), want (0, false)", arg, skip)
	}
	// A valueless response (dequeue on empty) elides leg 2.
	if _, skip := DeriveLeg2Arg(77, FlagArgFromLeg1, isb.RespEmpty); !skip {
		t.Fatal("empty leg-1 response did not skip leg 2")
	}
}
