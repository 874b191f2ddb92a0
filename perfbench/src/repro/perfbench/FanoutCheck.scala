package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.Window

/** Prints, as one JSON object, the `exec.assign_fanout` that
  * `BatchBench.assign` computes for a tumbling window set and for the
  * `hopping-min` window set on a small input. Used by `test_stats.py`.
  */
object FanoutCheck {
  def main(argv: Array[String]): Unit = {
    val spark = SparkSession.builder.master("local[2]").appName("fanout-check")
      .config("spark.ui.enabled", false)
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.local.dir", argv(0))
      .getOrCreate()
    val code = try {
      val rows = 20000L
      val events = SynthData.events(spark, rows, horizon = 2400, nKeys = 4, seed = 3).cache()
      val sets = Map(
        "tumbling" -> Vector(10L, 20L, 30L, 40L).map(Window.tumbling),
        "hopping-min" -> BatchBench.Workloads("hopping-min").windows)
      println(Json(sets.map { case (name, ws) => name -> BatchBench.assign(events, rows, ws)._3 }))
      0
    } catch { case e: Throwable => e.printStackTrace(); 1 }
    finally spark.stop()
    System.exit(code)
  }
}
