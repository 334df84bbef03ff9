; Replaces the prelude's reverse on every iteration with a closure over
; that iteration's variables, so a global cell built before the run
; points at a new cell after every write. Run as a procedure of one
; argument, e.g. `schemesim run examples/redefine-reverse.scm -n 40`.
(define (loop k acc)
  (if (zero? k)
      (reverse acc)
      (begin
        (set! reverse (lambda (l) (list k)))
        (loop (- k 1) (cons k acc)))))
(define (go n) (loop n '()))
go
