// Command bench stands in for a second module in the tree.
package main

import "surface/internal/lib"

func main() { println(lib.BenchOnly()) }
