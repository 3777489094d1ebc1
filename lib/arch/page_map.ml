(* Sparse map from 4-KiB page numbers to page buffers, shared by
   [Memory] (data bytes) and [Protset] (one protection byte per memory
   byte).  An absent page reads as all zero bytes.

   Page numbers are plain [int]s ([addr lsr 12] of a 64-bit address
   needs 52 bits), hashed by identity, so a lookup neither boxes its key
   nor calls the polymorphic hash.  The last page found is memoised:
   consecutive accesses to one page — a stack frame, a buffer walk, the
   bytes of one word — cost one comparison.  The memo holds present
   pages only, so creating a page never has to invalidate it.  A map is
   owned by one pipeline or executor and never touched by two domains at
   once. *)

let page_bits = 12
let page_size = 1 lsl page_bits

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (pn : int) = pn land max_int
end)

type t = {
  tbl : Bytes.t Tbl.t;
  mutable last_pn : int; (* -1 = no memo *)
  mutable last : Bytes.t;
}

let create () = { tbl = Tbl.create 64; last_pn = -1; last = Bytes.empty }

let page_number addr = Int64.to_int (Int64.shift_right_logical addr page_bits)
let offset addr = Int64.to_int addr land (page_size - 1)

(* The page [pn], or [Bytes.empty] when it is absent. *)
let find t pn =
  if pn = t.last_pn then t.last
  else
    match Tbl.find t.tbl pn with
    | p ->
        t.last_pn <- pn;
        t.last <- p;
        p
    | exception Not_found -> Bytes.empty

(* The page [pn], created zero-filled when absent. *)
let get t pn =
  let p = find t pn in
  if Bytes.length p > 0 then p
  else begin
    let p = Bytes.make page_size '\000' in
    Tbl.replace t.tbl pn p;
    t.last_pn <- pn;
    t.last <- p;
    p
  end

let copy t =
  let tbl = Tbl.create (max 64 (Tbl.length t.tbl)) in
  Tbl.iter (fun pn p -> Tbl.replace tbl pn (Bytes.copy p)) t.tbl;
  { tbl; last_pn = -1; last = Bytes.empty }

let clear t =
  Tbl.reset t.tbl;
  t.last_pn <- -1;
  t.last <- Bytes.empty

let iter f t = Tbl.iter f t.tbl
