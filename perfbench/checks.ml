(* Output checks against committed expectations.  Each check returns its
   mismatches, one readable line each; an empty list is a pass.  The
   benchmark counts every mismatch as a failed operation. *)

let lines s = String.split_on_char '\n' s

(* Byte equality, reported at the first differing line. *)
let text ~what ~expected ~actual =
  if String.equal expected actual then []
  else
    let rec first i = function
      | e :: es, a :: as_ -> if String.equal e a then first (i + 1) (es, as_) else (i, e, a)
      | e :: _, [] -> (i, e, "<end of output>")
      | [], a :: _ -> (i, "<end of expectation>", a)
      | [], [] -> (i, "", "")
    in
    let i, e, a = first 1 (lines expected, lines actual) in
    [ Printf.sprintf "%s: line %d differs: expected %S, got %S" what i e a ]

(* Key/value tables compared as maps: a missing, extra or different key
   is one mismatch each. *)
let pairs ~what ~expected ~actual =
  let missing =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k actual with
        | None -> Some (Printf.sprintf "%s: %s missing (expected %s)" what k v)
        | Some v' when not (String.equal v v') ->
            Some (Printf.sprintf "%s: %s = %s, expected %s" what k v' v)
        | Some _ -> None)
      expected
  in
  let extra =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k expected then None
        else Some (Printf.sprintf "%s: unexpected %s = %s" what k v))
      actual
  in
  missing @ extra

(* One "key<TAB>value" pair per line, the format of the committed
   expectation tables. *)
let parse_pairs s =
  List.filter_map
    (fun line ->
      match String.index_opt line '\t' with
      | Some i ->
          Some
            (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)
    (lines s)

let render_pairs kvs =
  String.concat "" (List.map (fun (k, v) -> k ^ "\t" ^ v ^ "\n") kvs)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* [text] without the lines mentioning any of [families]: the exported
   metrics minus the families that describe the run's own process
   topology rather than the simulated machine. *)
let drop_families families text =
  String.concat "\n"
    (List.filter
       (fun l -> not (List.exists (fun sub -> contains ~sub l) families))
       (lines text))
