import java.util.ArrayList;
import java.util.Comparator;
import java.util.List;
import java.util.TreeMap;

class Box<T> {
    T value;
}

class K08 {
    void f() {
        List<String> names = new ArrayList<String>();
        TreeMap<String, Integer> scores = new TreeMap<String, Integer>();
        names.forEach(n -> scores.put(n, n.length()));
        names.sort(Comparator.naturalOrder());
    }
}
