(** Abstract syntax for the SQL dialect understood by the storage engine.

    The dialect covers what the workloads need: single-table and joined
    SELECTs with WHERE / GROUP BY / ORDER BY / LIMIT, the aggregates used by
    the paper's applications, [WITH [RECURSIVE]] common table expressions
    (one CTE, base leg plus optional [UNION [ALL]] step leg), INSERT /
    UPDATE / DELETE, transaction control and CREATE TABLE. *)

type binop =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Add
  | Sub
  | Mul
  | Div

type unop = Not | Neg

type literal =
  | L_int of int
  | L_float of float
  | L_string of string
  | L_bool of bool
  | L_null

type agg = Count | Sum | Min | Max | Avg

type expr =
  | Lit of literal
  | Col of string option * string  (** optional table/alias qualifier *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | In_list of expr * expr list
  | In_select of expr * select
      (** uncorrelated subquery membership; the subquery must produce a
          single column *)
  | Is_null of { e : expr; negated : bool }
  | Like of expr * string
  | Between of { e : expr; lo : expr; hi : expr }
  | Agg of agg * expr option
      (** [Agg (Count, None)] is a count over all rows (star argument) *)

and sel_item =
  | Star
  | Sel_expr of expr * string option  (** expression, optional alias *)

and order = { o_expr : expr; o_asc : bool }

and join = { j_table : string; j_alias : string option; j_on : expr }

and select = {
  sel_with : cte option;
      (** common table expression prefixed to the query, if any *)
  sel_distinct : bool;
  sel_items : sel_item list;
  sel_from : (string * string option) option;
  sel_joins : join list;
  sel_where : expr option;
  sel_group_by : expr list;
  sel_having : expr option;
  sel_order_by : order list;
  sel_limit : int option;
  sel_offset : int option;
}

and cte = {
  cte_name : string;
  cte_cols : string list;
      (** explicit output column names; empty means "derive from the base
          leg's result columns" *)
  cte_base : select;
  cte_step : select option;
      (** the leg after [UNION [ALL]]; [None] for a plain single-leg CTE *)
  cte_union_all : bool;  (** [UNION ALL] (keep duplicates) vs [UNION] *)
  cte_recursive : bool;  (** the [RECURSIVE] keyword was present *)
}

type col_type = T_int | T_float | T_text | T_bool

type column_def = { cd_name : string; cd_type : col_type; cd_nullable : bool }

type stmt =
  | Select of select
  | Insert of { table : string; columns : string list; rows : expr list list }
  | Update of { table : string; set : (string * expr) list; where : expr option }
  | Delete of { table : string; where : expr option }
  | Create_table of {
      table : string;
      columns : column_def list;
      primary_key : string option;
    }
  | Begin_txn
  | Commit
  | Rollback

(** A statement is a *write* if it can mutate database or transaction state.
    The query store must flush (and immediately execute) writes rather than
    defer them — Sec. 3.3 of the paper. *)
let is_write = function
  | Select _ -> false
  | Insert _ | Update _ | Delete _ | Create_table _ | Begin_txn | Commit
  | Rollback ->
      true

(** Explicit transaction control.  A batch containing any of these runs as
    written instead of being wrapped in an implicit atomic transaction. *)
let is_txn_control = function
  | Begin_txn | Commit | Rollback -> true
  | _ -> false

let select_of ?(distinct = false) ?(items = [ Star ]) ?alias ?where
    ?(joins = []) ?(group_by = []) ?having ?(order_by = []) ?limit ?offset
    table =
  Select
    {
      sel_with = None;
      sel_distinct = distinct;
      sel_items = items;
      sel_from = Some (table, alias);
      sel_joins = joins;
      sel_where = where;
      sel_group_by = group_by;
      sel_having = having;
      sel_order_by = order_by;
      sel_limit = limit;
      sel_offset = offset;
    }

let col ?table name = Col (table, name)
let int n = Lit (L_int n)
let str s = Lit (L_string s)
let bool b = Lit (L_bool b)
let null = Lit L_null
let ( =% ) a b = Binop (Eq, a, b)
let ( &&% ) a b = Binop (And, a, b)
let ( ||% ) a b = Binop (Or, a, b)
