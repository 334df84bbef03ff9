; Builds a list before a deep non-tail recursion, so the bottom frames
; are the first to hold it, then rewrites it from the top with set-car!
; and set-cdr! on the way down: each write changes a cell recorded deep
; in the continuation and makes its old contents garbage. Run as a
; procedure of one argument, e.g.
; `schemesim run examples/mutate-deep.scm -n 40`.
(define (climb cell k)
  (if (zero? k)
      (length cell)
      (begin
        (if (zero? (remainder k 3))
            (set-car! cell (list k k k))
            (set-cdr! (cdr cell) (if (even? k) (list k k) '())))
        (+ 1 (climb cell (- k 1))))))
(define (go n)
  (let ((cell (list 'a 'b 'c 'd)))
    (+ (climb cell n) (length (car cell)))))
go
