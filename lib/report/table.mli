(** Plain-text and TSV table rendering for the experiment reports. *)

val render : header:string list -> string list list -> string
(** Aligned columns with a rule under the header.  Numeric-looking cells
    are right-aligned, text cells left-aligned. *)

val fnum : ?decimals:int -> float -> string
(** Compact float formatting: thousands separators for big magnitudes,
    [decimals] places (default 1) otherwise; ["inf"] for infinity. *)

val inum : int -> string
(** Integer with thousands separators. *)

val pct : float -> string
(** Percentage with one decimal, e.g. ["83.4%"]. *)

(** {2 Column specs}

    A table is declared once as a list of {!column}s over its row type;
    {!text} and {!tsv} are its two sinks.  Each column names its text
    header, its TSV name, or both, and reads one typed {!cell} per row.
    The cell's constructor fixes how the value prints in each sink:
    TSV always prints ints plain and floats as [%.6g]. *)

type cell =
  | Str of string  (** the same string in both sinks *)
  | Int of int  (** plain digits in both *)
  | Count of int  (** thousands separators ({!inum}) in text *)
  | Pct of float  (** a percentage ({!pct}) in text *)
  | Num of int * float
      (** [Num (decimals, x)]: {!fnum} with [decimals] places in text *)
  | Fmt of (float -> string) * float  (** a custom text format *)
  | Split of string * string  (** [Split (text, tsv)]: one string per sink *)

val hide : cell -> cell
(** Blank in text, unchanged in TSV — a nested line's repeated key, or
    a placeholder value the text table leaves out. *)

type 'row column

val col : string -> string -> ('row -> cell) -> 'row column
(** [col header name cell]: a column of both sinks. *)

val text_col : string -> ('row -> cell) -> 'row column
(** A column only the text table shows. *)

val tsv_col : string -> ('row -> cell) -> 'row column
(** A column only the TSV shows. *)

val text : 'row column list -> 'row list -> string
(** The {!render}ed table of the columns that have a text header. *)

val tsv : 'row column list -> 'row list -> string
(** One tab-separated header line of the TSV names, then one line per
    row. *)
