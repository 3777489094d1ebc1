(** Sparse map from 4-KiB page numbers to page buffers, shared by
    [Memory] and [Protset].  An absent page reads as all zero bytes.
    Page numbers are [int]s; the last page found is memoised.  A map is
    single-owner: never used by two domains at once. *)

val page_bits : int
val page_size : int

type t

val create : unit -> t

val page_number : int64 -> int
(** [addr lsr page_bits], exact (52 bits). *)

val offset : int64 -> int
(** Byte offset of the address within its page. *)

val find : t -> int -> Bytes.t
(** The page, or [Bytes.empty] (length 0) when it is absent. *)

val get : t -> int -> Bytes.t
(** The page, created zero-filled when absent. *)

val copy : t -> t
(** Deep copy: the pages are not shared. *)

val clear : t -> unit
val iter : (int -> Bytes.t -> unit) -> t -> unit
