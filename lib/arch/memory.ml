(* Sparse byte-addressable memory, stored as 4-KiB pages in a
   [Page_map].  Unmapped bytes read as zero, so transient wrong-path
   accesses to arbitrary addresses are always well-defined.

   Accesses work a word at a time: an access that sits inside one page
   does one page lookup (usually the memoised last page) and one
   little-endian load or store of its width (1, 2, 4 or 8 bytes).  An
   access that straddles a page boundary — or wraps past the top of the
   address space — falls back to the byte loop, as do the odd sizes no
   instruction uses. *)

let page_bits = Page_map.page_bits
let page_size = Page_map.page_size

type t = Page_map.t

let create = Page_map.create

let page_of addr = Int64.shift_right_logical addr page_bits
let offset_of = Page_map.offset

let read_byte t addr =
  let p = Page_map.find t (Page_map.page_number addr) in
  if Bytes.length p = 0 then 0 else Bytes.get_uint8 p (offset_of addr)

let write_byte t addr v =
  let p = Page_map.get t (Page_map.page_number addr) in
  Bytes.set_uint8 p (offset_of addr) (v land 0xff)

(* The byte-at-a-time forms, for page-straddling accesses. *)
let read_bytes t addr size =
  let rec loop i acc =
    if i < 0 then acc
    else
      let b = read_byte t (Int64.add addr (Int64.of_int i)) in
      loop (i - 1) (Int64.logor (Int64.shift_left acc 8) (Int64.of_int b))
  in
  loop (size - 1) 0L

let write_bytes t addr size v =
  for i = 0 to size - 1 do
    let b =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)
    in
    write_byte t (Int64.add addr (Int64.of_int i)) b
  done

let read t addr size =
  let off = offset_of addr in
  if off + size > page_size then read_bytes t addr size
  else
    let p = Page_map.find t (Page_map.page_number addr) in
    if Bytes.length p = 0 then 0L
    else
      match size with
      | 8 -> Bytes.get_int64_le p off
      | 4 ->
          let hi = Bytes.get_uint16_le p (off + 2) in
          Int64.of_int (Bytes.get_uint16_le p off lor (hi lsl 16))
      | 2 -> Int64.of_int (Bytes.get_uint16_le p off)
      | 1 -> Int64.of_int (Bytes.get_uint8 p off)
      | _ -> read_bytes t addr size

let write t addr size v =
  let off = offset_of addr in
  if size <= 0 then ()
  else if off + size > page_size then write_bytes t addr size v
  else
    let p = Page_map.get t (Page_map.page_number addr) in
    match size with
    | 8 -> Bytes.set_int64_le p off v
    | 4 ->
        let w = Int64.to_int v in
        Bytes.set_uint16_le p off (w land 0xffff);
        Bytes.set_uint16_le p (off + 2) ((w lsr 16) land 0xffff)
    | 2 -> Bytes.set_uint16_le p off (Int64.to_int v land 0xffff)
    | 1 -> Bytes.set_uint8 p off (Int64.to_int v land 0xff)
    | _ -> write_bytes t addr size v

(* Page-sized chunks: one lookup and one blit per page touched. *)
let write_string t addr s =
  let len = String.length s in
  let rec go addr pos =
    if pos < len then begin
      let off = offset_of addr in
      let n = min (len - pos) (page_size - off) in
      let p = Page_map.get t (Page_map.page_number addr) in
      Bytes.blit_string s pos p off n;
      go (Int64.add addr (Int64.of_int n)) (pos + n)
    end
  in
  go addr 0

let read_string t addr len =
  let b = Bytes.make len '\000' in
  let rec go addr pos =
    if pos < len then begin
      let off = offset_of addr in
      let n = min (len - pos) (page_size - off) in
      let p = Page_map.find t (Page_map.page_number addr) in
      if Bytes.length p > 0 then Bytes.blit p off b pos n;
      go (Int64.add addr (Int64.of_int n)) (pos + n)
    end
  in
  go addr 0;
  Bytes.unsafe_to_string b

let copy = Page_map.copy
let clear = Page_map.clear
let iter_pages t f = Page_map.iter (fun pn p -> f (Int64.of_int pn) p) t
