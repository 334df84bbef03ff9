(* [Map.Make (Int)] from the standard library, specialized: the same
   constructors, balancing and sharing tests, so the trees and the
   allocation are identical, with [compare] replaced by int tests. *)

type 'a t = Empty | Node of { l : 'a t; v : int; d : 'a; r : 'a t; h : int }

let height = function Empty -> 0 | Node { h; _ } -> h

let create l x d r =
  let hl = height l and hr = height r in
  Node { l; v = x; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let bal l x d r =
  let hl = match l with Empty -> 0 | Node { h; _ } -> h in
  let hr = match r with Empty -> 0 | Node { h; _ } -> h in
  if hl > hr + 2 then
    match l with
    | Empty -> invalid_arg "Locmap.bal"
    | Node { l = ll; v = lv; d = ld; r = lr; _ } -> (
        if height ll >= height lr then create ll lv ld (create lr x d r)
        else
          match lr with
          | Empty -> invalid_arg "Locmap.bal"
          | Node { l = lrl; v = lrv; d = lrd; r = lrr; _ } ->
              create (create ll lv ld lrl) lrv lrd (create lrr x d r))
  else if hr > hl + 2 then
    match r with
    | Empty -> invalid_arg "Locmap.bal"
    | Node { l = rl; v = rv; d = rd; r = rr; _ } -> (
        if height rr >= height rl then create (create l x d rl) rv rd rr
        else
          match rl with
          | Empty -> invalid_arg "Locmap.bal"
          | Node { l = rll; v = rlv; d = rld; r = rlr; _ } ->
              create (create l x d rll) rlv rld (create rlr rv rd rr))
  else Node { l; v = x; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let empty = Empty

let rec add x data = function
  | Empty -> Node { l = Empty; v = x; d = data; r = Empty; h = 1 }
  | Node { l; v; d; r; h } as m ->
      if x = v then if d == data then m else Node { l; v = x; d = data; r; h }
      else if x < v then
        let ll = add x data l in
        if l == ll then m else bal ll v d r
      else
        let rr = add x data r in
        if r == rr then m else bal l v d rr

let rec find_opt x = function
  | Empty -> None
  | Node { l; v; d; r; _ } ->
      if x = v then Some d else find_opt x (if x < v then l else r)

let rec mem x = function
  | Empty -> false
  | Node { l; v; r; _ } -> x = v || mem x (if x < v then l else r)

let rec min_binding = function
  | Empty -> raise Not_found
  | Node { l = Empty; v; d; _ } -> (v, d)
  | Node { l; _ } -> min_binding l

let rec remove_min_binding = function
  | Empty -> invalid_arg "Locmap.remove_min_elt"
  | Node { l = Empty; r; _ } -> r
  | Node { l; v; d; r; _ } -> bal (remove_min_binding l) v d r

let merge t1 t2 =
  match (t1, t2) with
  | Empty, t | t, Empty -> t
  | _, _ ->
      let x, d = min_binding t2 in
      bal t1 x d (remove_min_binding t2)

let rec remove_found x f = function
  | Empty -> Empty
  | Node { l; v; d; r; _ } as m ->
      if x = v then begin
        f v d;
        merge l r
      end
      else if x < v then
        let ll = remove_found x f l in
        if l == ll then m else bal ll v d r
      else
        let rr = remove_found x f r in
        if r == rr then m else bal l v d rr

let rec iter f = function
  | Empty -> ()
  | Node { l; v; d; r; _ } ->
      iter f l;
      f v d;
      iter f r

let rec fold f m acc =
  match m with
  | Empty -> acc
  | Node { l; v; d; r; _ } -> fold f r (f v d (fold f l acc))

let rec fold_from lo f m acc =
  match m with
  | Empty -> acc
  | Node { l; v; d; r; _ } ->
      if v < lo then fold_from lo f r acc
      else fold f r (f v d (fold_from lo f l acc))
