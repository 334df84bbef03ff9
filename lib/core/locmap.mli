(** Persistent maps from store locations (non-negative ints, though any
    int works) to values: the store's cell map.

    The algorithm is [Map.Make (Int)]'s AVL tree, node for node, with the
    key comparison inlined instead of called through the functor
    argument. Every operation returns the same tree, shares the same
    subtrees and allocates the same words as its [Map.Make (Int)]
    namesake, so replacing one by the other changes no figure of a run
    that reads [Gc.minor_words]. *)

type 'a t

val empty : 'a t
val add : int -> 'a -> 'a t -> 'a t
val find_opt : int -> 'a t -> 'a option
val mem : int -> 'a t -> bool

val remove_found : int -> (int -> 'a -> unit) -> 'a t -> 'a t
(** [remove_found k f m] is [m] without [k], as [Map.Make (Int)]'s
    [remove] builds it, after calling [f k v] when [m] binds [k] to [v]:
    one traversal where [find_opt] then [remove] take two. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val fold_from : int -> (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** [fold_from lo f m] is {!fold} over the bindings at keys [>= lo], in
    increasing order, skipping the subtrees below [lo] without splitting
    the map. *)
