(** Flat fixed-universe bitsets. A bitset over universe size [u] is a
    [(u + 62) / 63]-word [int array]; membership is one shift and
    mask, and the set algebra the hot paths need — intersection,
    union, subset, population count — runs word-wise, so a subset
    test over a few hundred elements costs a handful of word compares
    instead of an element-wise scan.

    This is only a set type. The query index builds its closure
    classes from bitsets and copies their words into numeric planes
    of its own; a query's support set is a bitset whose {!words} the
    index tests against those planes. Bitsets are mutable but cheap to
    copy, and reading one from several domains is safe (plain
    [int array] reads, no resizing). *)

type t

val create : int -> t
(** [create u] is the empty set over universe [0 .. u-1]. *)

val universe : t -> int
(** The universe size the set was created with. *)

val add : t -> int -> unit
(** Set membership bit [i]. Raises [Invalid_argument] outside the
    universe. *)

val remove : t -> int -> unit

val mem : t -> int -> bool
(** Membership; total — ids outside the universe are simply absent. *)

val cardinal : t -> int
(** Population count (word-wise SWAR, no per-bit loop). *)

val is_empty : t -> bool

val subset : t -> t -> bool
(** [subset a b] is [a ⊆ b]. The universes must match. *)

val inter : t -> t -> t
(** Fresh intersection. The universes must match. *)

val union : t -> t -> t
(** Fresh union. The universes must match. *)

val union_into : into:t -> t -> unit
(** [union_into ~into src] is [into := into ∪ src] word-wise — the
    closure accumulation primitive. The universes must match. *)

val equal : t -> t -> bool
val copy : t -> t

val words : t -> int array
(** The backing word array ([universe / 63] rounded up, tail bits
    clear). Exposed so fused hot loops (the query engine's per-class
    subset tests) and wire encoders can run word-wise without a
    per-element function call; callers must treat it as read-only. *)

val key : t -> string
(** A string equal iff the sets are equal over equal universes — the
    hashtable key for deduplicating structurally shared bitsets. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order; skips empty words, then walks set bits only. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending fold over members. *)

val to_sorted_array : t -> int array

val of_list : int -> int list -> t
(** [of_list u ids] adds every id, ignoring ids outside the universe
    (callers filter semantically, not defensively). *)

val of_sorted_array : int -> int array -> t

val to_bytes : t -> string
(** Little-endian bit packing — bit [i] lives in byte [i / 8] at bit
    [i mod 8] — independent of the in-memory word size, for wire
    formats. Length is [(universe + 7) / 8]. *)

val of_bytes : int -> string -> (t, string) result
(** Inverse of {!to_bytes} for a universe size; rejects a byte string
    of the wrong length or with set bits beyond the universe. *)

val words_for : int -> int
(** Words backing a universe of the given size: [(u + 62) / 63]. *)
