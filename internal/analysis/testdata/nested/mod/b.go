// Package b belongs to the nested module.
package b
