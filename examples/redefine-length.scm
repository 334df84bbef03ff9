; Replaces the prelude's length, once, with a closure over a freshly
; built list, then makes garbage. After install! returns, that list is
; reachable only through length's global cell, which was built before
; the run: the collector must find it there. Run as a procedure of one
; argument, e.g. `schemesim run examples/redefine-length.scm -n 40`.
(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
(define (churn k acc) (if (zero? k) acc (churn (- k 1) (cons k '()))))
(define (install! n)
  (let ((xs (build n)))
    (set! length (lambda (l) (car xs)))
    'installed))
(define (go n)
  (install! n)
  (churn (* 4 n) '())
  (length '()))
go
