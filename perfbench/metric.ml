(* Named, unit-carrying measurements and their JSON rendering.

   Names and units are restricted to the characters the result format
   allows, so rendering never needs escaping and a malformed name fails
   at the point it is made, not when the output is parsed. *)

type t = { name : string; unit_ : string; value : float }

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* [A-Za-z0-9_.-], starting with a letter or digit, at most 64 long. *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* [A-Za-z0-9_/%.-], at most 16 long. *)
let valid_unit s =
  let n = String.length s in
  n > 0 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let make name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.make: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Metric.make: bad unit " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Metric.make: %s is not finite" name);
  { name; unit_; value }

(* Shortest decimal that reads back as the same float: every digit
   measured, none invented. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_object ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
             (number m.value) m.unit_)
         ms)
  ^ "}"

(* Ratio with a zero denominator read as 0: a layer the workload never
   reaches reports 0, not nan. *)
let ratio num den = if den = 0. then 0. else num /. den
