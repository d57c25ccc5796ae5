// Positive fixture: a dot import hides the package name, but the call
// still reaches the global generator.
package truenorth

import . "math/rand"

func dotJitter() int {
	return Intn(3)
}
