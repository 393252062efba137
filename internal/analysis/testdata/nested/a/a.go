// Package a belongs to the enclosing module.
package a
