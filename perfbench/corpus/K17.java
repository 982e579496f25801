import java.sql.Connection;
import java.sql.DriverManager;
import java.sql.PreparedStatement;
import java.sql.ResultSet;
import java.sql.SQLException;

class K17 {
    ResultSet names(Connection conn) throws SQLException {
        PreparedStatement stmt = conn.prepareStatement("SELECT name FROM users WHERE id = ?");
        stmt.setInt(1, 7);
        return stmt.executeQuery();
    }

    Connection open(String url) throws SQLException {
        return DriverManager.getConnection(url);
    }
}
