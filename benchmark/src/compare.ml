(* Two sets of result files (base and head), compared per workload and
   end-to-end metric against the bounds in BENCHMARK.json, plus a check
   that the exact figures of equal-seed runs are identical. *)

module Json = Tailspace_telemetry.Telemetry.Json

type result_file = {
  path : string;
  workload : string;
  seed : int;
  values : (string * float) list;
  points : Record.t list;
}

let ( let* ) = Result.bind

let number = function
  | Json.Int i -> Some (float i)
  | Json.Float f -> Some f
  | _ -> None

let load path =
  let* json =
    match Record.read_file path with
    | exception Sys_error m -> Error m
    | text -> Json.of_string text
  in
  let err m = Error (path ^ ": " ^ m) in
  match
    ( Json.member "workload" json,
      Json.member "seed" json,
      Json.member "end_to_end" json,
      Json.member "points" json )
  with
  | Some (Json.Str workload), Some (Json.Int seed), Some (Json.Obj metrics), Some pts
    -> (
      let values =
        List.filter_map
          (fun (name, m) ->
            Option.map (fun v -> (name, v)) (Option.bind (Json.member "value" m) number))
          metrics
      in
      match Record.list_of_json pts with
      | Ok points -> Ok { path; workload; seed; values; points }
      | Error m -> err m)
  | _ -> err "not a benchmark result file (run with --out)"

type bound = { spec : Metrics.spec; bound : float }

let spec_file = "BENCHMARK.json"

(* The bound of every end-to-end metric; names, units and directions
   come from [Metrics], only the bounds from BENCHMARK.json. *)
let load_bounds path =
  let* json =
    match Record.read_file path with
    | exception Sys_error m -> Error m
    | text -> Json.of_string text
  in
  let* entries =
    match Json.member "end_to_end" json with
    | Some (Json.List ms) -> Ok ms
    | _ -> Error (path ^ ": no end_to_end list")
  in
  let bound_of name =
    List.find_map
      (fun m ->
        if Json.member "name" m = Some (Json.Str name) then
          Option.bind (Json.member "bound" m) number
        else None)
      entries
  in
  List.fold_right
    (fun (spec : Metrics.spec) acc ->
      let* l = acc in
      match bound_of spec.name with
      | Some bound -> Ok ({ spec; bound } :: l)
      | None -> Error (path ^ ": no bound for " ^ spec.name))
    Metrics.end_to_end (Ok [])

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* How much worse [head] is than [base], as a share of [base]; negative
   when better. *)
let worsening better ~base ~head =
  let d = match better with Metrics.Lower -> head -. base | Higher -> base -. head in
  if d = 0. then 0. else if base = 0. then Float.infinity *. d else d /. Float.abs base

let spread xs =
  let q1, q2, q3 = Stats.quartiles xs in
  if q2 = 0. then if q3 = q1 then 0. else Float.infinity else (q3 -. q1) /. Float.abs q2

(* A spread wider than the bound leaves the metric unresolved unless
   every head run beats every base run, however far the medians drift.
   Otherwise a regression is a median worse by more than the bound, and
   a gain needs nine tenths of the pairs won and a median difference
   larger than the base's own quartile distance. *)
let judge (b : bound) ~base ~head =
  let better x y =
    match b.spec.better with Metrics.Lower -> x < y | Higher -> x > y
  in
  let mb = Stats.median base and mh = Stats.median head in
  let k = min (List.length base) (List.length head) in
  let first xs = List.filteri (fun i _ -> i < k) xs in
  let pairs = List.combine (first base) (first head) in
  let won = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> better y x) base) head
  in
  let q1, _, q3 = Stats.quartiles base in
  let verdict =
    if Float.max (spread base) (spread head) > b.bound then
      if all_better then Better else Unresolved
    else if worsening b.spec.better ~base:mb ~head:mh > b.bound then Worse
    else if
      10 * won >= 9 * List.length pairs && better mh mb
      && Float.abs (mh -. mb) > q3 -. q1
    then Better
    else Same
  in
  (verdict, won, List.length pairs)

(* Exact figures must match between any base and head run of one seed. *)
let count_mismatches base head =
  List.concat_map
    (fun (b : result_file) ->
      List.concat_map
        (fun (h : result_file) ->
          if b.workload <> h.workload || b.seed <> h.seed then []
          else if List.length b.points <> List.length h.points then
            [ Printf.sprintf "%s vs %s: different point lists" b.path h.path ]
          else
            List.concat
              (List.map2
                 (fun (e : Record.t) a ->
                   match Record.diff ~expected:e ~actual:a with
                   | [] -> []
                   | d ->
                       [
                         Printf.sprintf "%s seed %d %s n=%d: %s differ" b.workload
                           b.seed e.label e.n (String.concat ", " d);
                       ])
                 b.points h.points))
        head)
    base
  |> List.sort_uniq compare

let fmt v = Printf.sprintf "%.6g" v

(* Prints the table; returns whether anything regressed. *)
let run ~bounds ~base ~head =
  let workloads =
    List.sort_uniq compare (List.map (fun (r : result_file) -> r.workload) base)
  in
  let regress = ref false and unresolved = ref 0 in
  Printf.printf "%-13s %-15s %-33s %-33s %-6s %s\n" "workload" "metric"
    "base median [q1, q3]" "head median [q1, q3]" "won" "verdict";
  List.iter
    (fun wl ->
      let side files =
        List.filter (fun (r : result_file) -> r.workload = wl) files
      in
      let bs = side base and hs = side head in
      if List.length bs < 2 || List.length hs < 2 then begin
        Printf.printf "%-13s needs at least two result files per side\n" wl;
        regress := true
      end
      else
        List.iter
          (fun (b : bound) ->
            let values files =
              List.filter_map
                (fun (r : result_file) -> List.assoc_opt b.spec.name r.values)
                files
            in
            let bv = values bs and hv = values hs in
            if List.length bv < 2 || List.length hv < 2 then begin
              Printf.printf "%-13s %-15s missing from some result files\n" wl
                b.spec.name;
              regress := true
            end
            else begin
              let v, won, pairs = judge b ~base:bv ~head:hv in
              if v = Worse then regress := true;
              if v = Unresolved then incr unresolved;
              let show xs =
                let q1, q2, q3 = Stats.quartiles xs in
                Printf.sprintf "%s [%s, %s]" (fmt q2) (fmt q1) (fmt q3)
              in
              Printf.printf "%-13s %-15s %-33s %-33s %-6s %s\n" wl b.spec.name
                (show bv) (show hv)
                (Printf.sprintf "%d/%d" won pairs)
                (verdict_name v)
            end)
          bounds)
    workloads;
  let mismatches = count_mismatches base head in
  List.iter (fun m -> Printf.printf "exact figures: %s\n" m) mismatches;
  if mismatches <> [] then regress := true;
  Printf.printf "unresolved: %d; exact-figure mismatches: %d; %s\n" !unresolved
    (List.length mismatches)
    (if !regress then "REGRESSION" else "no regression");
  !regress
