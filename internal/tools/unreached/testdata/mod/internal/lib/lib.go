// Package lib holds one declaration of each kind the reachability rule
// tells apart; the trailing comments say what reaches each.
package lib

func Reachable() {} // main calls it

// TestOnly is called from lib_test.go alone.
func TestOnly() {}

type Celsius int // main converts to it

func (c Celsius) String() string { return "warm" } // fmt.Stringer names it; nothing calls it

func (c Celsius) Kelvin() int { return int(c) + 273 } // no interface names it

type Box[T any] struct{ v T } // main instantiates Box[int]

func (b Box[T]) Get() T { return b.v } // reached through the instantiation

func (b *Box[T]) Put(v T) { b.v = v } // not reached

func First[T any](xs []T) T { return xs[0] } // a generic function main instantiates

type Spare struct{} // nothing mentions it; it stands for its method

func (Spare) Error() string { return "spare" }
