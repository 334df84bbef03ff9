let exponent points =
  match List.rev points with
  | (nk, sk) :: (nj, sj) :: (ni, si) :: _
    when 0 < ni && ni < nj && nk * ni = nj * nj ->
      let top = sk - sj and prev = sj - si in
      if top <= 0 then Some 0.
      else if prev <= 0 then None
      else
        Some
          (Float.log2 (float_of_int top /. float_of_int prev)
          /. Float.log2 (float_of_int nk /. float_of_int nj))
  | _ -> None

let exponent_over ns points =
  if List.map fst points = ns then exponent points else None

(* Half the distance between adjacent classes: bounded (0), linear (1,
   N log N included) and quadratic (2). *)
let margin = 0.5

let separates px py =
  match (px, py) with Some x, Some y -> x >= y +. margin | _ -> false

let bounded p = p <> None && not (separates p (Some 0.))
let show = function Some p -> Printf.sprintf "%.2f" p | None -> "-"
