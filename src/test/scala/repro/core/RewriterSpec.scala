package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The §3.3 rewriting as `WcgPlan.render` shows it: MultiCast/Union wiring
  * of the min-cost forest (Figures 1(b) and 2).
  */
class RewriterSpec extends AnyFunSuite with SeededProps {

  private val ex1 = Seq(10L, 20L, 30L, 40L).map(Window.tumbling)
  private val ex7 = Seq(20L, 30L, 40L).map(Window.tumbling)

  /** `(indent, text)` per rendered line. */
  private def lines(text: String): Vector[(Int, String)] =
    text.linesIterator.map(l => (l.takeWhile(_ == ' ').length, l.trim)).toVector

  /** Index of the line that line `i` hangs under. */
  private def above(ls: Vector[(Int, String)], i: Int): Int =
    (i - 1 to 0 by -1).find(j => ls(j)._1 < ls(i)._1).get

  test("original plan: Source => MultiCast => windows => Union (Figure 1(b))") {
    assert(WcgPlan.allRoots(ex1, Semantics.CoveredBy).render ==
      """Source
        |  Multicast
        |    W(10,10) -> Union
        |    W(20,20) -> Union
        |    W(30,30) -> Union
        |    W(40,40) -> Union
        |Union""".stripMargin)
  }

  test("Example 1 rewritten plan matches the right side of Figure 2(a)") {
    // One root: no source Multicast; W10 multicasts to Union, W20 and W30;
    // W20 to Union and W40; leaves link straight to Union.
    assert(CostModel.minCostPlan(ex1, Semantics.CoveredBy, 1).render ==
      """Source
        |  W(10,10)
        |    Multicast -> Union
        |      W(20,20)
        |        Multicast -> Union
        |          W(40,40) -> Union
        |      W(30,30) -> Union
        |Union""".stripMargin)
  }

  test("Example 7 with factor window: factor results are not exposed to Union") {
    val plan = FactorWindows.minCostPlanWithFactors(ex7, Semantics.PartitionedBy, 1)
    assert(plan.factorWindows == Vector(Window.tumbling(10)))
    assert(plan.render ==
      """Source
        |  W(10,10)
        |    Multicast
        |      W(20,20)
        |        Multicast -> Union
        |          W(40,40) -> Union
        |      W(30,30) -> Union
        |Union""".stripMargin)
  }

  test("multi-root plans keep the source MultiCast") {
    // W(20,20) and W(27,27) have no coverage relation: two roots.
    Seq(Seq(Window.tumbling(20), Window.tumbling(27)) -> true,
        Seq(Window.tumbling(20), Window.tumbling(40)) -> false).foreach { case (ws, kept) =>
      val plan = CostModel.minCostPlan(ws, Semantics.CoveredBy, 1)
      assert((plan.roots.size >= 2) == kept)
      assert((lines(plan.render)(1) == (2, "Multicast")) == kept, plan.render)
    }
  }

  /** Random Algorithm-2 plans with their rendered lines. */
  private def randomPlans(body: (WcgPlan, Vector[(Int, String)]) => Unit): Unit =
    sampled(150) { rnd => alignedSet(rnd, 5) } { ws =>
      val plan = FactorWindows.minCostPlanWithFactors(ws, Semantics.CoveredBy, 100)
      body(plan, lines(plan.render))
    }

  /** Index of the one line rendering `w`. */
  private def lineOf(ls: Vector[(Int, String)], w: Window): Int = {
    val at = ls.indices.filter(i => ls(i)._2.takeWhile(_ != ' ') == w.toString)
    assert(at.size == 1, s"$w rendered ${at.size} times")
    at.head
  }

  test("rewritten plan has exactly one MultiCast per window with children") {
    randomPlans { (plan, ls) =>
      plan.allWindows.foreach { w =>
        val i = lineOf(ls, w)
        assert((ls(i + 1)._1 == ls(i)._1 + 2 && ls(i + 1)._2.startsWith("Multicast")) ==
          plan.childrenOf(w).nonEmpty, s"$w Multicast wrong in\n${plan.render}")
        val up = above(ls, i)
        plan.parent(w) match {
          case Some(p) =>
            assert(ls(up)._2.startsWith("Multicast") && above(ls, up) == lineOf(ls, p),
              s"$w not under $p in\n${plan.render}")
          case None =>
            assert(ls(up)._2 == (if (plan.roots.size >= 2) "Multicast" else "Source"))
        }
      }
    }
  }

  test("render produces a readable tree containing every window") {
    randomPlans { (plan, ls) =>
      assert(ls.head == ((0, "Source")) && ls.last == ((0, "Union")))
      plan.allWindows.foreach(lineOf(ls, _))
      assert(ls.size == 2 + plan.allWindows.size +
        plan.allWindows.count(plan.childrenOf(_).nonEmpty) + (if (plan.roots.size >= 2) 1 else 0))
    }
  }

  test("every user window reaches Union on random plans; factor windows never link Union directly") {
    var withFactors = 0
    randomPlans { (plan, ls) =>
      if (plan.factorWindows.nonEmpty) withFactors += 1
      plan.allWindows.foreach { w =>
        val i = lineOf(ls, w)
        val link = if (plan.childrenOf(w).nonEmpty) ls(i + 1)._2 else ls(i)._2
        assert(link.endsWith("-> Union") == plan.userWindows.contains(w),
          s"$w Union link wrong in\n${plan.render}")
      }
      assert(ls.count(_._2.endsWith("-> Union")) == plan.userWindows.size)
    }
    assert(withFactors > 0, "no sampled plan has a factor window")
  }
}
