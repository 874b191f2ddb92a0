package repro.exec

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.{Window, WcgPlan}

/** Executes a multi-window aggregate query over an event DataFrame, either
  * as the *baseline* plan (every window computed independently from the raw
  * stream — Figure 1(b)) or as the *rewritten* hierarchical plan along a
  * min-cost WCG (Figure 2), where downstream windows consume the
  * sub-aggregates emitted by their upstream window.
  *
  * This is the query-rewriting layer of §3.3: both plans are compositions
  * of ordinary DataFrame operators (explode-based instance assignment +
  * groupBy/agg), so no engine change is involved — exactly the paper's
  * claim. Shared intermediate nodes are optionally persisted, which is the
  * batch analogue of the `Multicast` operator.
  *
  * Input schema: `(t, k, v)` — integer event time `t` (in abstract time
  * units ≥ 0), grouping key `k` (the `DeviceID` of Figure 1), value `v`.
  * Output schema: `(w_r, w_s, k, wstart, value)` — one row per window per
  * key per instance that saw at least one event.
  */
object Executor {

  /** The events as the sub-aggregates of the virtual root S⟨1,1⟩ (§4.1):
    * one state per event, over the unit span `[t, t + 1)`.
    */
  private def eventSubAggs(events: DataFrame, agg: AggSpec): DataFrame =
    events.select(col("k"), col("t").as("wstart"), agg.lift(col("v")).as("st"))

  /** Sub-aggregate states of `w` computed directly from events:
    * `(k, wstart, st)`.
    */
  def subAggFromEvents(events: DataFrame, w: Window, agg: AggSpec): DataFrame =
    subAggFromUpstream(eventSubAggs(events, agg), Window.virtualRoot, w, agg)

  /** Sub-aggregate states of `w` computed from the sub-aggregates of its
    * upstream window `upW` (the covering-set reduction of Observation 1):
    * each upstream interval `[u, u + upW.r)` feeds every instance of `w`
    * whose interval contains it.
    */
  def subAggFromUpstream(up: DataFrame, upW: Window, w: Window,
                         agg: AggSpec): DataFrame =
    up
      .select(
        col("k"),
        explode(WindowAssign.instanceStarts(col("wstart"), col("wstart") + upW.r, w))
          .as("wstart2"),
        col("st"))
      .groupBy(col("k"), col("wstart2").as("wstart"))
      .agg(agg.merge(col("st")).as("st"))

  /** Finalize a sub-aggregate DataFrame of `w` into the output schema;
    * `wstart` is the instance-start column (the stream derives it from its
    * window struct).
    */
  def finish(df: DataFrame, w: Window, agg: AggSpec,
             wstart: Column = col("wstart")): DataFrame =
    df.select(
      lit(w.r).as("w_r"),
      lit(w.s).as("w_s"),
      col("k"),
      wstart,
      agg.finish(col("st")).cast("double").as("value"))

  /** Baseline plan (left side of Figure 2(a)): the rewritten plan over the
    * all-roots forest, every window computed from the raw events.
    */
  def baseline(events: DataFrame, windows: Seq[Window], agg: AggSpec): DataFrame = {
    require(windows.nonEmpty, "empty window set")
    rewritten(events, WcgPlan.allRoots(windows, agg.semantics), agg)
  }

  /** Rewritten plan: fold the min-cost WCG forest in dataflow order, every
    * window aggregating its parent's sub-aggregates — a root's parent being
    * S⟨1,1⟩, whose sub-aggregates are the events; union the finalized user
    * windows (right side of Figure 2(a)). Factor windows participate but
    * are not exposed.
    *
    * @param persistShared persist sub-aggregate nodes read more than once
    *                      (Multicast); callers should `unpersistAll` after
    *                      consuming the result when set.
    */
  def rewritten(events: DataFrame, plan: WcgPlan, agg: AggSpec,
                persistShared: Boolean = false): DataFrame = {
    require(plan.semantics == agg.semantics,
      s"plan built for ${plan.semantics} but ${agg.name} needs ${agg.semantics}")
    val source = Window.virtualRoot -> eventSubAggs(events, agg)
    val userSet = plan.userWindows.toSet
    val subAggs = plan.fold[DataFrame] { (w, up) =>
      val (upW, upDf) = up.getOrElse(source)
      val df = subAggFromUpstream(upDf, upW, w, agg)
      val fanOut = plan.childrenOf(w).size + (if (userSet.contains(w)) 1 else 0)
      if (persistShared && fanOut > 1) df.persist(StorageLevel.MEMORY_AND_DISK) else df
    }
    plan.userWindows
      .map(w => finish(subAggs(w), w, agg))
      .reduce(_.unionAll(_))
  }

  /** Drop every persisted intermediate of this session (after a
    * `persistShared = true` run).
    */
  def unpersistAll(events: DataFrame): Unit =
    events.sparkSession.sharedState.cacheManager.clearCache()
}
