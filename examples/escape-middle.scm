; At each level of a non-tail recursion, dives deeper, then escapes with
; call/cc from the bottom of the dive back to that level and recurses
; again from there: the continuation falls back to frames a collection
; has recorded and grows new ones over them. Run as a procedure of one
; argument, e.g. `schemesim run examples/escape-middle.scm -n 40`.
(define (dive k depth escape)
  (if (zero? depth)
      (escape k)
      (cons depth (dive k (- depth 1) escape))))
(define (level k depth)
  (if (zero? k)
      '()
      (let ((got (call/cc (lambda (escape) (dive k depth escape)))))
        (cons got (level (- k 1) depth)))))
(define (go n)
  (length (level (quotient n 8) (quotient n 2))))
go
