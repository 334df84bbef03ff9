(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let to_string j =
    let buf = Buffer.create 256 in
    let rec emit = function
      | Null -> Buffer.add_string buf "null"
      | Bool true -> Buffer.add_string buf "true"
      | Bool false -> Buffer.add_string buf "false"
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f ->
          if Float.is_integer f && Float.abs f < 1e15 then
            Buffer.add_string buf (Printf.sprintf "%.1f" f)
          else Buffer.add_string buf (Printf.sprintf "%.17g" f)
      | Str s ->
          Buffer.add_char buf '"';
          escape buf s;
          Buffer.add_char buf '"'
      | List items ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_char buf ',';
              emit item)
            items;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              escape buf k;
              Buffer.add_string buf "\":";
              emit v)
            fields;
          Buffer.add_char buf '}'
    in
    emit j;
    Buffer.contents buf

  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
            | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
            | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
            | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
            | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
            | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
            | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
            | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail "bad \\u escape"
                in
                (* decode as UTF-8; the emitter only produces escapes
                   below 0x20, but accept the BMP for robustness *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec fields acc =
              let kv = field () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields (kv :: acc)
              | Some '}' ->
                  advance ();
                  List.rev (kv :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse m -> Error m

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

type alloc_kind =
  | K_atom
  | K_int
  | K_string
  | K_pair
  | K_vector
  | K_closure
  | K_escape

let all_alloc_kinds =
  [ K_atom; K_int; K_string; K_pair; K_vector; K_closure; K_escape ]

let kind_index = function
  | K_atom -> 0
  | K_int -> 1
  | K_string -> 2
  | K_pair -> 3
  | K_vector -> 4
  | K_closure -> 5
  | K_escape -> 6

let n_kinds = 7

let alloc_kind_name = function
  | K_atom -> "atom"
  | K_int -> "int"
  | K_string -> "string"
  | K_pair -> "pair"
  | K_vector -> "vector"
  | K_closure -> "closure"
  | K_escape -> "escape"

type gc_reason = Gc_peak | Gc_linked | Gc_final | Gc_forced

let gc_reason_name = function
  | Gc_peak -> "peak-exceeded"
  | Gc_linked -> "linked-measure"
  | Gc_final -> "final"
  | Gc_forced -> "fault-injected"

type event =
  | Step of { step : int; space : int; cont_depth : int; store_cells : int }
  | Cont_push of { step : int; depth : int }
  | Cont_pop of { step : int; depth : int }
  | Alloc of { step : int; kind : alloc_kind; words : int }
  | Gc_run of { step : int; reason : gc_reason; live : int; freed : int }
  | Stuck of { step : int; message : string }

let event_to_json event : Json.t =
  match event with
  | Step { step; space; cont_depth; store_cells } ->
      Obj
        [
          ("ev", Str "step");
          ("step", Int step);
          ("space", Int space);
          ("cont_depth", Int cont_depth);
          ("store_cells", Int store_cells);
        ]
  | Cont_push { step; depth } ->
      Obj [ ("ev", Str "push"); ("step", Int step); ("depth", Int depth) ]
  | Cont_pop { step; depth } ->
      Obj [ ("ev", Str "pop"); ("step", Int step); ("depth", Int depth) ]
  | Alloc { step; kind; words } ->
      Obj
        [
          ("ev", Str "alloc");
          ("step", Int step);
          ("kind", Str (alloc_kind_name kind));
          ("words", Int words);
        ]
  | Gc_run { step; reason; live; freed } ->
      Obj
        [
          ("ev", Str "gc");
          ("step", Int step);
          ("reason", Str (gc_reason_name reason));
          ("live", Int live);
          ("freed", Int freed);
        ]
  | Stuck { step; message } ->
      Obj [ ("ev", Str "stuck"); ("step", Int step); ("message", Str message) ]

type sink = event -> unit

let jsonl_sink write event = write (Json.to_string (event_to_json event))

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)

module Profile = struct
  type t = {
    mutable stride : int;
    max_samples : int;
    mutable steps : int array;
    mutable spaces : int array;
    mutable len : int;
  }

  let create ?(stride = 1) ?(max_samples = 65536) () =
    let stride = Stdlib.max 1 stride in
    let max_samples = Stdlib.max 2 max_samples in
    let cap = Stdlib.min max_samples 1024 in
    {
      stride;
      max_samples;
      steps = Array.make cap 0;
      spaces = Array.make cap 0;
      len = 0;
    }

  let push p step space =
    if p.len = Array.length p.steps then begin
      let cap = Stdlib.min p.max_samples (2 * p.len) in
      let grow a = Array.init cap (fun i -> if i < p.len then a.(i) else 0) in
      p.steps <- grow p.steps;
      p.spaces <- grow p.spaces
    end;
    p.steps.(p.len) <- step;
    p.spaces.(p.len) <- space;
    p.len <- p.len + 1

  let compact p =
    (* Double the stride and retain exactly the samples aligned with the
       new stride (dropping duplicate steps), so [samples] satisfies
       step ≡ 0 (mod stride) however many compactions have run. Keeping
       "every other sample" instead would leave retained steps
       misaligned once strides and sampled steps drift apart. *)
    let stride = 2 * p.stride in
    let kept = ref 0 in
    for i = 0 to p.len - 1 do
      if
        p.steps.(i) mod stride = 0
        && (!kept = 0 || p.steps.(!kept - 1) <> p.steps.(i))
      then begin
        p.steps.(!kept) <- p.steps.(i);
        p.spaces.(!kept) <- p.spaces.(i);
        incr kept
      end
    done;
    p.len <- !kept;
    p.stride <- stride

  let sample p ~step ~space =
    if step mod p.stride = 0 then begin
      while p.len >= p.max_samples do
        compact p
      done;
      (* The compaction loop may have coarsened the stride past this
         step; the triggering sample is kept only if still aligned. *)
      if step mod p.stride = 0 then push p step space
    end

  let stride p = p.stride
  let samples p = List.init p.len (fun i -> (p.steps.(i), p.spaces.(i)))

  let to_csv p =
    let buf = Buffer.create (16 * (p.len + 1)) in
    Buffer.add_string buf "step,space\n";
    for i = 0 to p.len - 1 do
      Buffer.add_string buf (string_of_int p.steps.(i));
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int p.spaces.(i));
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

type t = {
  mutable steps : int;
  mutable gc_runs : int;
  mutable gc_freed : int;
  allocs : int array;  (* count per kind *)
  mutable alloc_words : int;
  mutable last_depth : int;
  mutable max_cont_depth : int;
  mutable cont_pushes : int;
  mutable cont_pops : int;
  mutable store_hwm : int;
  mutable peak_space : int;
  mutable peak_linked : int;  (* -1 = unmeasured *)
  mutable peak_log : int;  (* -1 = unmeasured *)
  mutable stuck : string option;
  sink : sink option;
  config_sink : (int -> string -> unit) option;
  ring : (int * string Lazy.t) array;
      (* capacity 0 = disabled; descriptions are rendered when read *)
  mutable ring_len : int;
  mutable ring_pos : int;
  profile : Profile.t option;
}

let create ?sink ?config_sink ?(ring = 0) ?profile () =
  {
    steps = 0;
    gc_runs = 0;
    gc_freed = 0;
    allocs = Array.make n_kinds 0;
    alloc_words = 0;
    last_depth = 0;
    max_cont_depth = 0;
    cont_pushes = 0;
    cont_pops = 0;
    store_hwm = 0;
    peak_space = 0;
    peak_linked = -1;
    peak_log = -1;
    stuck = None;
    sink;
    config_sink;
    ring = Array.make (Stdlib.max 0 ring) (0, lazy "");
    ring_len = 0;
    ring_pos = 0;
    profile;
  }

let emit t event = match t.sink with Some sink -> sink event | None -> ()

let record_step t ~step ~space ~cont_depth ~store_cells =
  if step > t.steps then t.steps <- step;
  if space > t.peak_space then t.peak_space <- space;
  if store_cells > t.store_hwm then t.store_hwm <- store_cells;
  if cont_depth > t.max_cont_depth then t.max_cont_depth <- cont_depth;
  let d0 = t.last_depth in
  if cont_depth <> d0 then begin
    if cont_depth > d0 then begin
      t.cont_pushes <- t.cont_pushes + (cont_depth - d0);
      emit t (Cont_push { step; depth = cont_depth })
    end
    else begin
      t.cont_pops <- t.cont_pops + (d0 - cont_depth);
      emit t (Cont_pop { step; depth = cont_depth })
    end;
    t.last_depth <- cont_depth
  end;
  (match t.profile with
  | Some p -> Profile.sample p ~step ~space
  | None -> ());
  emit t (Step { step; space; cont_depth; store_cells })

let record_alloc t ~step ~kind ~words =
  t.allocs.(kind_index kind) <- t.allocs.(kind_index kind) + 1;
  t.alloc_words <- t.alloc_words + words;
  emit t (Alloc { step; kind; words })

let record_gc t ~step ~reason ~live ~freed =
  t.gc_runs <- t.gc_runs + 1;
  t.gc_freed <- t.gc_freed + freed;
  emit t (Gc_run { step; reason; live; freed })

let record_stuck t ~step ~message =
  t.stuck <- Some message;
  emit t (Stuck { step; message })

let wants_config t =
  Array.length t.ring > 0 || Option.is_some t.config_sink

let record_config t ~step description =
  (match t.config_sink with
  | Some f -> f step (Lazy.force description)
  | None -> ());
  let cap = Array.length t.ring in
  if cap > 0 then begin
    t.ring.(t.ring_pos) <- (step, description);
    t.ring_pos <- (t.ring_pos + 1) mod cap;
    if t.ring_len < cap then t.ring_len <- t.ring_len + 1
  end

let note_steps t steps = t.steps <- steps
let note_peak t space = if space > t.peak_space then t.peak_space <- space

let note_linked t space =
  if space > t.peak_linked then t.peak_linked <- space

let note_peak_linked t = if t.peak_linked < 0 then None else Some t.peak_linked
let note_log t space = if space > t.peak_log then t.peak_log <- space
let note_peak_log t = if t.peak_log < 0 then None else Some t.peak_log
let steps t = t.steps
let gc_runs t = t.gc_runs
let alloc_count t kind = t.allocs.(kind_index kind)
let max_cont_depth t = t.max_cont_depth
let peak_space t = t.peak_space

let ring_contents t =
  let cap = Array.length t.ring in
  List.init t.ring_len (fun i ->
      let step, description =
        t.ring.((t.ring_pos - t.ring_len + i + (2 * cap)) mod cap)
      in
      (step, Lazy.force description))

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)

type summary = {
  steps : int;
  gc_runs : int;
  gc_freed : int;
  allocations : (alloc_kind * int) list;
  alloc_words : int;
  max_cont_depth : int;
  cont_pushes : int;
  cont_pops : int;
  store_hwm : int;
  peak_space : int;
  peak_linked : int option;
  peak_log : int option;
  stuck : string option;
}

let summary (t : t) : summary =
  {
    steps = t.steps;
    gc_runs = t.gc_runs;
    gc_freed = t.gc_freed;
    allocations =
      List.filter_map
        (fun kind ->
          let c = t.allocs.(kind_index kind) in
          if c > 0 then Some (kind, c) else None)
        all_alloc_kinds;
    alloc_words = t.alloc_words;
    max_cont_depth = t.max_cont_depth;
    cont_pushes = t.cont_pushes;
    cont_pops = t.cont_pops;
    store_hwm = t.store_hwm;
    peak_space = t.peak_space;
    peak_linked = note_peak_linked t;
    peak_log = note_peak_log t;
    stuck = t.stuck;
  }

let empty_summary : summary =
  {
    steps = 0;
    gc_runs = 0;
    gc_freed = 0;
    allocations = [];
    alloc_words = 0;
    max_cont_depth = 0;
    cont_pushes = 0;
    cont_pops = 0;
    store_hwm = 0;
    peak_space = 0;
    peak_linked = None;
    peak_log = None;
    stuck = None;
  }

let merge_summaries summaries =
  (* Fleet view over independent runs: counters add up, high-water marks
     take the worst run, [stuck] keeps the first failure. *)
  let counts = Array.make n_kinds 0 in
  let merge acc s =
    List.iter
      (fun (kind, c) ->
        let i = kind_index kind in
        counts.(i) <- counts.(i) + c)
      s.allocations;
    {
      steps = acc.steps + s.steps;
      gc_runs = acc.gc_runs + s.gc_runs;
      gc_freed = acc.gc_freed + s.gc_freed;
      allocations = [];
      alloc_words = acc.alloc_words + s.alloc_words;
      max_cont_depth = Stdlib.max acc.max_cont_depth s.max_cont_depth;
      cont_pushes = acc.cont_pushes + s.cont_pushes;
      cont_pops = acc.cont_pops + s.cont_pops;
      store_hwm = Stdlib.max acc.store_hwm s.store_hwm;
      peak_space = Stdlib.max acc.peak_space s.peak_space;
      peak_linked =
        (match (acc.peak_linked, s.peak_linked) with
        | Some a, Some b -> Some (Stdlib.max a b)
        | (Some _ as p), None | None, p -> p);
      peak_log =
        (match (acc.peak_log, s.peak_log) with
        | Some a, Some b -> Some (Stdlib.max a b)
        | (Some _ as p), None | None, p -> p);
      stuck = (match acc.stuck with Some _ -> acc.stuck | None -> s.stuck);
    }
  in
  let acc = List.fold_left merge empty_summary summaries in
  {
    acc with
    allocations =
      List.filter_map
        (fun kind ->
          let c = counts.(kind_index kind) in
          if c > 0 then Some (kind, c) else None)
        all_alloc_kinds;
  }

let summary_to_json (s : summary) : Json.t =
  Obj
    [
      ("steps", Int s.steps);
      ("gc_runs", Int s.gc_runs);
      ("gc_freed", Int s.gc_freed);
      ( "allocations",
        Obj
          (List.map
             (fun (kind, c) -> (alloc_kind_name kind, Json.Int c))
             s.allocations) );
      ("alloc_words", Int s.alloc_words);
      ("max_cont_depth", Int s.max_cont_depth);
      ("cont_pushes", Int s.cont_pushes);
      ("cont_pops", Int s.cont_pops);
      ("store_hwm", Int s.store_hwm);
      ("peak_space", Int s.peak_space);
      ( "peak_linked",
        match s.peak_linked with Some p -> Int p | None -> Null );
      ("peak_log", match s.peak_log with Some p -> Int p | None -> Null);
      ("stuck", match s.stuck with Some m -> Str m | None -> Null);
    ]
