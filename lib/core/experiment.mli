(** First-class experiments and their registry.

    Each table or figure of the paper is one {!t}: an identifier, the
    paper section it reproduces, a one-line description, and an
    existentially packed {!shape} — the row type stays abstract while
    the value carries everything needed to compute the rows from a
    (lazily loaded) study, and one column spec
    ({!Fisher92_report.Table.column}) that renders them both as the
    paper-style text block and as machine-readable TSV.

    [Experiments] populates the registry at module-initialization time;
    the CLI and the benchmark driver derive their section lists,
    [--list] output and unknown-name errors from {!all}, so adding an
    experiment is one {!register} call.  Drivers must reference the
    [Experiments] module (e.g. via [Experiments.registry]) to force its
    registrations to run — OCaml only initializes linked modules. *)

type ('row, 'line) shape = {
  sh_compute : Study.t Lazy.t -> 'row list;
      (** Forcing the study is the experiment's choice: the inventory
          table never touches it, so listing it stays free. *)
  sh_lines : 'row -> 'line list;
      (** the table lines of one row: the row itself, or several for
          experiments that nest per-dataset lines under one row *)
  sh_columns : 'line Fisher92_report.Table.column list;
      (** the table, declared once for both sinks *)
  sh_text : 'row list -> string;  (** the paper-style text block *)
}

type packed = Shape : ('row, 'line) shape -> packed

type t = {
  e_id : string;  (** section name, e.g. ["fig2"] *)
  e_paper : string;  (** paper reference, e.g. ["Figure 2"] *)
  e_descr : string;
  e_shape : packed;
}

val make :
  id:string ->
  paper:string ->
  descr:string ->
  ?title:string ->
  ?order:('row -> 'row -> int) ->
  ?footer:('row list -> string) ->
  ?text:('row list -> string) ->
  columns:'row Fisher92_report.Table.column list ->
  (Study.t Lazy.t -> 'row list) ->
  t
(** An experiment whose table has one line per row.  Its text is
    [title] (plus a newline), the columns' text table over the rows
    sorted by [order] (default: as computed), then [footer] of the rows
    as computed.  [text] replaces that whole block, for sections whose
    text is not one column table (bar charts, split tables); their TSV
    still comes from [columns]. *)

val make_nested :
  id:string ->
  paper:string ->
  descr:string ->
  ?title:string ->
  ?order:('row -> 'row -> int) ->
  ?footer:('row list -> string) ->
  ?text:('row list -> string) ->
  lines:('row -> 'line list) ->
  columns:'line Fisher92_report.Table.column list ->
  (Study.t Lazy.t -> 'row list) ->
  t
(** {!make} for rows that expand into several table lines, in both
    sinks. *)

val render_text : t -> Study.t Lazy.t -> string

val render_tsv : t -> Study.t Lazy.t -> string
(** One tab-separated header line, then one line per table line. *)

(** {2 Registry} *)

val register : t -> unit
(** @raise Invalid_argument on a duplicate id. *)

val all : unit -> t list
(** Registration order — the order [render_all] and the drivers use. *)

val ids : unit -> string list
val find : string -> t option

val list_table : unit -> string
(** The [--list] rendering: id, paper reference, description. *)
