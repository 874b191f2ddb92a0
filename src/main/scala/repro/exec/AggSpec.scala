package repro.exec

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.core.Semantics

/** A window aggregate in the distributive/algebraic form of §3.1 (Gray et
  * al.'s taxonomy), expressed as Spark column algebra:
  *
  *  - `lift` turns an event value into a sub-aggregate state (an event is a
  *    singleton sub-aggregate);
  *  - `merge` is the aggregate expression combining a group of states into
  *    one (the function `g`);
  *  - `finish` maps a state to the user-visible result (the function `h`;
  *    identity for distributive aggregates).
  *
  * `semantics` is the WCG relation the aggregate admits (footnote 5):
  * MIN/MAX remain distributive over *overlapping* covers (Theorem 6) and
  * use "covered by"; SUM/COUNT/AVG need disjoint partitions ("partitioned
  * by", Theorem 5). Holistic aggregates (e.g. MEDIAN) have no such form and
  * are out of scope, as in the paper.
  */
sealed abstract class AggSpec(val name: String, val semantics: Semantics) {
  def lift(v: Column): Column
  def merge(st: Column): Column
  def finish(st: Column): Column
}

object AggSpec {
  /** MIN — distributive, tolerant of overlapping covers (Theorem 6). */
  case object Min extends AggSpec("min", Semantics.CoveredBy) {
    def lift(v: Column): Column = v
    def merge(st: Column): Column = min(st)
    def finish(st: Column): Column = st
  }

  /** MAX — distributive, tolerant of overlapping covers (Theorem 6). */
  case object Max extends AggSpec("max", Semantics.CoveredBy) {
    def lift(v: Column): Column = v
    def merge(st: Column): Column = max(st)
    def finish(st: Column): Column = st
  }

  /** SUM — distributive, requires disjoint partitions. */
  case object Sum extends AggSpec("sum", Semantics.PartitionedBy) {
    def lift(v: Column): Column = v
    def merge(st: Column): Column = sum(st)
    def finish(st: Column): Column = st
  }

  /** COUNT — distributive with `g = SUM`, requires disjoint partitions.
    * Counts events, null values included: SQL's `COUNT(*)`, not `COUNT(v)`.
    */
  case object Count extends AggSpec("count", Semantics.PartitionedBy) {
    def lift(v: Column): Column = lit(1L)
    def merge(st: Column): Column = sum(st)
    def finish(st: Column): Column = st
  }

  /** AVG — algebraic: state is (sum, count of non-null values), finished
    * by division. Like SQL's `AVG`, null values are skipped and an instance
    * whose values are all null yields null.
    */
  case object Avg extends AggSpec("avg", Semantics.PartitionedBy) {
    def lift(v: Column): Column =
      struct(v.cast("double").as("s"), v.isNotNull.cast("long").as("c"))
    def merge(st: Column): Column =
      struct(sum(st.getField("s")).as("s"), sum(st.getField("c")).as("c"))
    def finish(st: Column): Column = try_divide(st.getField("s"), st.getField("c"))
  }

  val all: Seq[AggSpec] = Seq(Min, Max, Sum, Count, Avg)

  def byName(n: String): AggSpec =
    all.find(_.name == n.toLowerCase)
      .getOrElse(throw new IllegalArgumentException(
        s"unknown aggregate '$n' (supported: ${all.map(_.name).mkString(", ")})"))
}
