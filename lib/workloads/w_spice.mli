(** 013.spice2g6 analogue: a nodal circuit simulator whose datasets
    exercise different modules (linear DC, Newton device models,
    transient), reproducing the paper's spice unpredictability. *)

val program : Fisher92_minic.Ast.program
val max_nodes : int
val max_elems : int

(** Netlist element constructors for hand-built datasets (see the
    implementation header for the encoding). *)

type elem = { ty : int; a : int; b : int; value : float }

val resistor : int -> int -> float -> elem
val vsource : int -> int -> float -> elem
val capacitor : int -> int -> float -> elem
val bjt : int -> int -> float -> elem
val fet : int -> int -> float -> elem

val make_dataset :
  string ->
  string ->
  nodes:int ->
  mode:int ->
  ?tsteps:int ->
  ?dt:float ->
  ?sweep_points:int ->
  elem list ->
  Workload.dataset
(** [make_dataset name descr ~nodes ~mode elems]: mode 0 = DC, 1 =
    transient, 2 = DC sweep. *)

val workload : Workload.t
